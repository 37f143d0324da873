//! Edge cases and failure injection across the stack.

use std::collections::BTreeSet;
use tc_study::buffer::{BufferPool, PagePolicy};
use tc_study::cli::LabeledGraph;
use tc_study::core::prelude::*;
use tc_study::det::check::{self, Checker};
use tc_study::graph::{DagGenerator, Graph};
use tc_study::storage::{DiskSim, FaultConfig, FileKind, Page, PageId, Pager, StorageError};

#[test]
fn empty_graph_runs_everywhere() {
    let g = Graph::empty(16);
    let mut db = Database::build(&g, true).unwrap();
    let cfg = SystemConfig::default().collecting();
    for algo in Algorithm::ALL {
        let res = db.run(&Query::full(), algo, &cfg).unwrap();
        assert_eq!(res.metrics.answer_tuples, 0, "{algo}");
        assert!(res.answer.unwrap().is_empty());
    }
}

#[test]
fn single_node_graph() {
    let g = Graph::empty(1);
    let mut db = Database::build(&g, true).unwrap();
    for algo in Algorithm::ALL {
        let res = db
            .run(&Query::partial(vec![0]), algo, &SystemConfig::default())
            .unwrap();
        assert_eq!(res.metrics.answer_tuples, 0, "{algo}");
    }
}

#[test]
fn empty_source_set_is_a_noop() {
    let g = DagGenerator::new(100, 3.0, 20).seed(1).generate();
    let mut db = Database::build(&g, true).unwrap();
    for algo in Algorithm::ALL {
        let res = db
            .run(&Query::partial(vec![]), algo, &SystemConfig::default())
            .unwrap();
        assert_eq!(res.metrics.answer_tuples, 0, "{algo}");
    }
}

#[test]
fn all_sources_ptc_equals_full_closure() {
    let g = DagGenerator::new(200, 3.0, 50).seed(2).generate();
    let mut db = Database::build(&g, true).unwrap();
    let cfg = SystemConfig::default().collecting();
    let all: Vec<u32> = (0..200).collect();
    for algo in [Algorithm::Btc, Algorithm::Spn, Algorithm::Jkb2] {
        let full = db.run(&Query::full(), algo, &cfg).unwrap();
        let ptc = db.run(&Query::partial(all.clone()), algo, &cfg).unwrap();
        assert_eq!(full.answer, ptc.answer, "{algo}");
    }
}

#[test]
fn minimum_buffer_pool_still_completes() {
    // Four frames is the practical floor (split + scan + tail + victim).
    let g = DagGenerator::new(300, 4.0, 60).seed(3).generate();
    let mut db = Database::build(&g, false).unwrap();
    let cfg = SystemConfig::with_buffer(4).validated();
    db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap();
}

#[test]
fn cyclic_input_is_rejected_by_the_engine_and_handled_by_condensation() {
    let g = tc_study::graph::gen::cyclic(120, 3.0, 30, 12, 7);
    assert!(!g.is_acyclic());
    // The engine's restructuring phase requires a DAG (documented).
    let mut db = Database::build(&g, false).unwrap();
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = db.run(&Query::full(), Algorithm::Btc, &SystemConfig::default());
    }));
    assert!(attempt.is_err(), "cyclic input must be refused");

    // The paper's prescription: condense first.
    let cond = tc_study::graph::condensation(&g);
    let mut db = Database::build(&cond.graph, false).unwrap();
    let res = db
        .run(
            &Query::full(),
            Algorithm::Btc,
            &SystemConfig::default().validated(),
        )
        .unwrap();
    assert!(res.metrics.answer_tuples > 0);
}

/// Runs `tcq` with each `"FILE"` in `args` replaced by the path of a
/// file holding `edges`; returns (exit ok, stdout, stderr).
fn tcq(edges: &str, args: &[&str]) -> (bool, String, String) {
    let path = std::env::temp_dir().join(format!(
        "tcq-failure-modes-{}-{:?}.txt",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, edges).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tcq"))
        .args(args.iter().map(|&a| match a {
            "FILE" => path.as_os_str(),
            a => a.as_ref(),
        }))
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.success(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn self_loop_lines_are_cycles_of_length_one_not_dropped() {
    // The 2-cycle `a b / b a` has always reported `a a`; so must `a a`.
    let edges = "a a\na b\n";
    let (ok, stdout, stderr) = tcq(edges, &["FILE", "--print-answer"]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, "a\ta\na\tb\n");
    assert!(stderr.contains("1 self-loop(s)"), "{stderr}");

    // A selection reports the loop of a queried source only.
    let (ok, stdout, stderr) = tcq(edges, &["FILE", "--print-answer", "--sources", "a"]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, "a\ta\na\tb\n");
    let (ok, stdout, stderr) = tcq(edges, &["FILE", "--print-answer", "--sources", "b"]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, "");

    // A node of a larger component is not reported twice.
    let (ok, stdout, stderr) = tcq("a a\na b\nb a\n", &["FILE", "--print-answer", "-s", "a"]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, "a\ta\na\tb\n");

    // Maintenance and serving need a DAG; a self-loop is not one.
    for sub in ["update", "serve"] {
        let (ok, _, stderr) = tcq(edges, &[sub, "FILE"]);
        assert!(!ok, "tcq {sub} accepted a self-loop");
        assert!(stderr.contains("cyclic input"), "{stderr}");
    }
}

#[test]
fn a_flag_is_never_taken_as_another_flags_value() {
    // `--trace --print-answer` used to write the trace to a file named
    // `--print-answer`. (`section --trace --quick` is held the same way
    // by `crates/bench/tests/section_cli.rs`, next to its binary.)
    let dir = std::env::temp_dir().join(format!("tcq-swallowed-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("g.txt"), "a b\n").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tcq"))
        .args(["g.txt", "--trace", "--print-answer"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim_end(),
        "--trace needs PATH"
    );
    assert_eq!(left, ["g.txt"], "tcq created a file");
}

#[test]
fn jkb2_without_dual_representation_is_an_error() {
    let g = DagGenerator::new(50, 2.0, 10).seed(4).generate();
    let mut db = Database::build(&g, false).unwrap();
    let err = db
        .run(
            &Query::partial(vec![0]),
            Algorithm::Jkb2,
            &SystemConfig::default(),
        )
        .unwrap_err();
    assert!(matches!(err, StorageError::WrongFileKind { .. }));
    // The database is still usable afterwards (disk restored).
    db.run(
        &Query::partial(vec![0]),
        Algorithm::Btc,
        &SystemConfig::default(),
    )
    .unwrap();
}

#[test]
fn out_of_range_source_is_a_typed_error_before_the_run() {
    let g = DagGenerator::new(50, 2.0, 10).seed(5).generate();
    let mut db = Database::build(&g, true).unwrap();
    let n = g.n() as u32;
    let footprint = |db: &mut Database| {
        let store = db.take_store().unwrap();
        let seen = (store.page_count(), store.catalog().clone());
        db.restore_store(store);
        seen
    };
    let before = footprint(&mut db);
    let cfg = SystemConfig::default().validated();
    for node in [n, u32::MAX] {
        let query = Query::partial(vec![0, node]);
        let want = StorageError::UnknownNode {
            node,
            n: n as usize,
        };
        for algorithm in Algorithm::WITH_INDEX {
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                db.run(&query, algorithm, &cfg).map(|_| ())
            }));
            assert_eq!(
                got.ok(),
                Some(Err(want.clone())),
                "{algorithm:?} source {node}"
            );
        }
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.run_advised(&query, &cfg).map(|_| ())
        }));
        assert_eq!(got.ok(), Some(Err(want)), "advised, source {node}");
        assert_eq!(
            footprint(&mut db),
            before,
            "source {node} touched the store"
        );
    }
    // The database still answers.
    db.run(&Query::partial(vec![0, n - 1]), Algorithm::Btc, &cfg)
        .unwrap();
}

#[test]
fn pool_exhaustion_is_reported_not_corrupted() {
    let mut disk = DiskSim::new();
    let file = disk.create_file(FileKind::Temp);
    let mut pids = Vec::new();
    for _ in 0..4 {
        pids.push(disk.alloc(file).unwrap());
    }
    let mut pool = BufferPool::new(disk, 3, PagePolicy::Lru);
    for &p in &pids[..3] {
        pool.pin(p).unwrap();
    }
    let err = pool.with_page(pids[3], |_p: &Page| ()).unwrap_err();
    assert_eq!(err, StorageError::AllFramesPinned);
    // Unpinning recovers the pool.
    pool.unpin(pids[0]);
    pool.with_page(pids[3], |_p: &Page| ()).unwrap();
}

#[test]
fn freed_files_recycle_pages_without_aliasing() {
    let mut disk = DiskSim::new();
    let keep = disk.create_file(FileKind::Relation);
    let scratch = disk.create_file(FileKind::Temp);
    let kp = disk.alloc(keep).unwrap();
    let mut page = Page::new();
    page.put_u32(0, 42);
    disk.write_page(kp, &page).unwrap();
    let sp = disk.alloc(scratch).unwrap();
    page.put_u32(0, 99);
    disk.write_page(sp, &page).unwrap();

    let mut pool = BufferPool::new(disk, 4, PagePolicy::Lru);
    pool.with_page(sp, |_p: &Page| ()).unwrap();
    pool.free_file(scratch).unwrap();
    assert!(!pool.is_resident(sp), "freed pages leave the pool");

    // Reallocation reuses the freed page id with zeroed contents.
    let other = pool.create_file(FileKind::Temp);
    let reused = pool.alloc_page(other).unwrap();
    assert_eq!(reused, sp, "page id recycled");
    let v = pool.with_page(reused, |p: &Page| p.get_u32(0)).unwrap();
    assert_eq!(v, 0, "recycled page is zeroed");
    // And the kept file is untouched.
    let v = pool.with_page(kp, |p: &Page| p.get_u32(0)).unwrap();
    assert_eq!(v, 42);
}

#[test]
fn duplicate_and_unsorted_sources_are_normalized() {
    let g = DagGenerator::new(100, 3.0, 25).seed(6).generate();
    let mut db = Database::build(&g, true).unwrap();
    let cfg = SystemConfig::default().collecting();
    let a = db
        .run(&Query::partial(vec![9, 3, 9, 3]), Algorithm::Btc, &cfg)
        .unwrap();
    let b = db
        .run(&Query::partial(vec![3, 9]), Algorithm::Btc, &cfg)
        .unwrap();
    assert_eq!(a.answer, b.answer);
}

#[test]
fn every_storage_error_variant_constructs_and_displays() {
    // One instance of each variant: constructible from outside the
    // crate, matchable, and Display non-empty. `variant` has no wildcard
    // arm, so a new variant does not compile until it is numbered there;
    // the list holds each number once, in order.
    fn variant(err: &StorageError) -> usize {
        match err {
            StorageError::PageOutOfBounds(_) => 0,
            StorageError::UnknownFile(_) => 1,
            StorageError::SlotOutOfBounds { .. } => 2,
            StorageError::PageFull(_) => 3,
            StorageError::AllFramesPinned => 4,
            StorageError::WrongFileKind { .. } => 5,
            StorageError::UnsortedInput => 6,
            StorageError::InsufficientSortMemory { .. } => 7,
            StorageError::TransientIo { .. } => 8,
            StorageError::PermanentFault(_) => 9,
            StorageError::ChecksumMismatch { .. } => 10,
            StorageError::CorruptFile { .. } => 11,
            StorageError::ValueOutOfRange { .. } => 12,
            StorageError::RetriesExhausted { .. } => 13,
            StorageError::UnknownNode { .. } => 14,
            StorageError::DiskDetached => 15,
            StorageError::ReadOnlyStore => 16,
            StorageError::Backend { .. } => 17,
            StorageError::Internal(_) => 18,
        }
    }
    let variants: Vec<StorageError> = vec![
        StorageError::PageOutOfBounds(PageId(3)),
        StorageError::UnknownFile(9),
        StorageError::SlotOutOfBounds {
            slot: 300,
            capacity: 256,
        },
        StorageError::PageFull(PageId(1)),
        StorageError::AllFramesPinned,
        StorageError::WrongFileKind {
            expected: "relation",
            actual: "temp",
        },
        StorageError::UnsortedInput,
        StorageError::InsufficientSortMemory { got: 2, need: 3 },
        StorageError::TransientIo {
            pid: PageId(4),
            write: true,
        },
        StorageError::PermanentFault(PageId(5)),
        StorageError::ChecksumMismatch {
            pid: PageId(6),
            stored: 0xAB,
            computed: 0xCD,
        },
        StorageError::CorruptFile {
            file: 2,
            what: "a closure row is not strictly ascending",
        },
        StorageError::ValueOutOfRange {
            value: 2000,
            bound: 2000,
        },
        StorageError::RetriesExhausted {
            pid: PageId(7),
            attempts: 4,
        },
        StorageError::UnknownNode { node: 50, n: 50 },
        StorageError::DiskDetached,
        StorageError::ReadOnlyStore,
        StorageError::Backend {
            op: "open segment",
            detail: "permission denied".to_string(),
        },
        StorageError::Internal("invariant"),
    ];
    let listed: Vec<usize> = variants.iter().map(variant).collect();
    assert_eq!(listed, (0..19).collect::<Vec<_>>(), "one of each, in order");
    for err in &variants {
        assert!(!format!("{err}").is_empty());
        assert_eq!(err.clone(), *err);
    }
    // No two distinct variants compare equal (guards accidental merges).
    for (i, a) in variants.iter().enumerate() {
        for b in variants.iter().skip(i + 1) {
            assert_ne!(a, b);
        }
    }
}

#[test]
fn unretryable_fault_mid_run_errors_without_poisoning_the_database() {
    let g = DagGenerator::new(300, 4.0, 60).seed(8).generate();
    let mut db = Database::build(&g, true).unwrap();

    // Page 0 is the first relation page, read by every restructuring
    // scan; killing it permanently must fail the run with the typed
    // error, never a panic.
    let cfg = SystemConfig::default().faulted(
        FaultConfig::new(1).on_page(PageId(0), tc_study::storage::FaultKind::PermanentRead),
    );
    let err = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap_err();
    assert!(
        matches!(err, StorageError::PermanentFault(_)),
        "expected the injected permanent fault, got {err:?}"
    );

    // The database must be fully usable afterwards: the fault plan was
    // disarmed and the disk handed back, so a clean run validates.
    let res = db
        .run(
            &Query::full(),
            Algorithm::Btc,
            &SystemConfig::default().validated(),
        )
        .unwrap();
    assert!(res.metrics.answer_tuples > 0);
}

#[test]
fn torn_writes_are_detected_not_absorbed() {
    let g = DagGenerator::new(300, 4.0, 60).seed(9).generate();
    let mut db = Database::build(&g, true).unwrap();

    // Every write is torn; with a 4-frame pool the corrupted pages are
    // re-read during the run and checksum verification must catch them.
    let cfg = SystemConfig::with_buffer(4).faulted(FaultConfig::new(2).corrupt_writes(1.0));
    let err = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap_err();
    assert!(
        matches!(err, StorageError::ChecksumMismatch { .. }),
        "expected a checksum detection, got {err:?}"
    );

    // Still not poisoned: the next fault-free run repairs nothing silently
    // (the base relation was bulk-loaded before the plan was armed) and
    // completes with a validated answer.
    let res = db
        .run(
            &Query::full(),
            Algorithm::Btc,
            &SystemConfig::default().validated(),
        )
        .unwrap();
    assert!(res.metrics.answer_tuples > 0);
}

#[test]
fn retries_exhausted_surfaces_when_transients_outlast_the_budget() {
    let g = DagGenerator::new(300, 4.0, 60).seed(10).generate();
    let mut db = Database::build(&g, true).unwrap();
    // A streak cap above the attempt budget makes a p=1.0 transient plan
    // unclearable: the retry loop must give up with the typed error.
    let cfg = SystemConfig::default().faulted(
        FaultConfig::new(3)
            .transient_reads(1.0)
            .max_transient_streak(100),
    );
    let err = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap_err();
    assert!(
        matches!(err, StorageError::RetriesExhausted { attempts: 4, .. }),
        "expected retry exhaustion at the default budget, got {err:?}"
    );
    // And again: the database survives.
    db.run(&Query::full(), Algorithm::Btc, &SystemConfig::default())
        .unwrap();
}

#[test]
fn source_with_no_successors() {
    // A sink node as the only source: empty answer, no I/O explosion.
    let g = Graph::from_arcs(5, [(0, 4), (1, 4), (2, 4)]);
    let mut db = Database::build(&g, true).unwrap();
    for algo in Algorithm::ALL {
        let res = db
            .run(&Query::partial(vec![4]), algo, &SystemConfig::default())
            .unwrap();
        assert_eq!(res.metrics.answer_tuples, 0, "{algo}");
        assert!(
            res.metrics.total_io() < 50,
            "{algo}: {}",
            res.metrics.total_io()
        );
    }
}

/// An edge file with every feature the parser reads: comments, blank
/// and whitespace-only lines, tabs, CRLF endings, a self-loop and
/// non-ASCII labels.
const EDGE_FILE: &str =
    "# deps\nlibc gcc\nrustc libc\n\nrustc llvm # tail\nllvm llvm\n\u{3b1} \u{3b2}\r\n  x\ty  \n\t\nx libc";

/// What an edge file describes, written from the format's definition
/// (one `from to` pair per line, `#` to end of line ignored), not from
/// the parser: labels in first-appearance order, arcs and self-loops by
/// label; `None` when a non-blank line is not a pair.
type Described = (Vec<String>, BTreeSet<(String, String)>, BTreeSet<String>);

fn described(text: &str) -> Option<Described> {
    let (mut labels, mut arcs, mut loops) = (Vec::new(), BTreeSet::new(), BTreeSet::new());
    for raw in text.lines() {
        let content = raw.find('#').map_or(raw, |i| &raw[..i]);
        match content.split_whitespace().collect::<Vec<_>>()[..] {
            [] => {}
            [a, b] => {
                for label in [a, b] {
                    if !labels.iter().any(|l| l == label) {
                        labels.push(label.to_string());
                    }
                }
                if a == b {
                    loops.insert(a.to_string());
                } else {
                    arcs.insert((a.to_string(), b.to_string()));
                }
            }
            _ => return None,
        }
    }
    Some((labels, arcs, loops))
}

/// Parses `text` and holds the result to [`described`]: `Ok(true)` for
/// the graph the file describes, `Ok(false)` for a refusal of a file
/// that is not an edge list, `Err` for anything else, a panic included.
fn parses_as_described(text: &str) -> Result<bool, String> {
    use tc_study::det::{require, require_eq};
    let parsed = std::panic::catch_unwind(|| LabeledGraph::parse(text))
        .map_err(|_| format!("parser panicked on {text:?}"))?;
    let (lg, (labels, arcs, loops)) = match (parsed, described(text)) {
        (Err(_), None) => return Ok(false),
        (Ok(lg), Some(want)) => (lg, want),
        (got, want) => return Err(format!("{text:?}: parsed {got:?}, described {want:?}")),
    };
    require_eq!(&lg.labels, &labels, "{text:?}");
    require_eq!(lg.graph.n(), labels.len());
    for (id, label) in labels.iter().enumerate() {
        require_eq!(lg.id(label), Some(id as u32), "{label:?}");
    }
    let by_label = |id: u32| lg.label(id).to_string();
    let got_arcs: BTreeSet<_> = lg
        .graph
        .arcs()
        .map(|(u, v)| (by_label(u), by_label(v)))
        .collect();
    require_eq!(got_arcs, arcs, "{text:?}");
    require!(lg.self_loops.windows(2).all(|w| w[0] < w[1]), "{text:?}");
    let got_loops: BTreeSet<_> = lg.self_loops.iter().map(|&v| by_label(v)).collect();
    require_eq!(got_loops, loops, "{text:?}");
    Ok(true)
}

/// [`EDGE_FILE`]'s lines, each hit by byte mutations (flip, delete,
/// insert, truncate; as `event_schema_pin` mutates its trace lines)
/// with probability 1/4, so that some files stay edge lists.
fn mutated_edge_file(rng: &mut tc_study::det::Rng) -> Vec<String> {
    let mutated = |rng: &mut tc_study::det::Rng, line: &str| {
        let mut bytes = line.as_bytes().to_vec();
        for _ in 0..rng.random_range(1..4usize) {
            let at = rng.random_range(0..bytes.len().max(1));
            match rng.random_range(0..4u32) {
                0 if !bytes.is_empty() => bytes[at] ^= 1 << rng.random_range(0..8u32),
                1 if !bytes.is_empty() => drop(bytes.remove(at)),
                2 => bytes.insert(at, rng.next_u32() as u8),
                _ => bytes.truncate(at),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    };
    EDGE_FILE
        .split('\n')
        .map(|line| match rng.random_bool(0.25) {
            true => mutated(rng, line),
            false => line.to_string(),
        })
        .collect()
}

/// A user-supplied edge file, mutated: the parser returns the graph
/// the file describes or a typed error, and never panics.
#[test]
fn mutated_edge_files_parse_or_fail_typed() {
    assert_eq!(parses_as_described(EDGE_FILE), Ok(true));
    // The mutation rate leaves both outcomes common, whatever the case
    // count: the oracle of an accepted file is not vacuous.
    let accepted = (0..64)
        .filter(|&seed| {
            let lines = mutated_edge_file(&mut tc_study::det::Rng::from_seed(seed));
            parses_as_described(&lines.join("\n")) == Ok(true)
        })
        .count();
    assert!((8..56).contains(&accepted), "{accepted} of 64 accepted");
    Checker::new("mutated_edge_files_parse_or_fail_typed").run(
        mutated_edge_file,
        check::shrink_vec,
        |lines| parses_as_described(&lines.join("\n")).map(drop),
    );
}
