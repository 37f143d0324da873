//! Differential serial ≡ parallel test for the experiment scheduler.
//!
//! The scheduler's contract (DESIGN.md §"Deterministic parallel
//! scheduling") is that `--jobs` is purely a throughput knob: every
//! report fragment is byte-identical at any worker count, because cells
//! are pure functions of their coordinates and results are reassembled
//! in canonical cell order. This test runs every registered section on
//! the quick grid at `jobs = 1` (inline serial path) and `jobs = 4`
//! (work-queue path, oversubscribed on small hosts so workers genuinely
//! interleave) and compares FNV-1a digests of the fragments — the same
//! digest family `golden_seed.rs` uses for workload pinning.

use tc_bench::corpus::family;
use tc_bench::experiments::{run_cells, Cell, CellTask, QuerySpec, Sinks, SECTIONS};
use tc_bench::ExpOpts;
use tc_study::core::prelude::*;
use tc_study::obs::SpanRecorder;
use tc_study::profile::{profile_jsonl, render, ProfileSink};
use tc_study::trace::{Fnv, Tracer};

#[test]
fn every_section_is_byte_identical_serial_vs_parallel() {
    let serial = ExpOpts::quick().jobs(1);
    let parallel = ExpOpts::quick().jobs(4);
    let mut diverged = Vec::new();
    for (name, f) in SECTIONS {
        let a = f(&serial).unwrap_or_else(|e| panic!("{name} failed at jobs=1: {e}"));
        let b = f(&parallel).unwrap_or_else(|e| panic!("{name} failed at jobs=4: {e}"));
        if a != b {
            diverged.push(format!(
                "{name}: jobs=1 digest {:#018X} != jobs=4 digest {:#018X}",
                Fnv::bytes(a.as_bytes()),
                Fnv::bytes(b.as_bytes())
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "sections diverged between serial and parallel execution — a cell is \
         reading shared state (wall clock, shared RNG, scheduling order?):\n{}",
        diverged.join("\n")
    );
}

#[test]
fn per_cell_traces_are_byte_identical_serial_vs_parallel() {
    // The same contract, one layer deeper: with `--trace` the scheduler
    // writes one JSONL event stream per cell, each through its own sink,
    // so every trace file must be byte-identical at any worker count —
    // worker interleaving must never blend two cells' streams.
    let cells: Vec<Cell> = [Algorithm::Btc, Algorithm::Srch, Algorithm::Seminaive]
        .into_iter()
        .flat_map(|algorithm| {
            (0..2).map(move |set| Cell {
                fam: family("G3"),
                instance: 0,
                set,
                task: CellTask::Query {
                    algorithm,
                    query: QuerySpec::Ptc(2),
                    cfg: SystemConfig::default(),
                },
            })
        })
        .collect();
    let root = std::env::temp_dir().join(format!("tc-trace-det-{}", std::process::id()));
    let dir1 = root.join("jobs1");
    let dir4 = root.join("jobs4");
    for (jobs, dir) in [(1, &dir1), (4, &dir4)] {
        let sinks = Sinks::Dirs {
            trace: Some(dir),
            timing: None,
        };
        run_cells(&cells, jobs, sinks).unwrap_or_else(|e| panic!("jobs={jobs} traced sweep: {e}"));
    }

    let mut diverged = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let name = cell.trace_file_name(i);
        let a = std::fs::read(dir1.join(&name)).unwrap_or_else(|e| panic!("{name} at jobs=1: {e}"));
        let b = std::fs::read(dir4.join(&name)).unwrap_or_else(|e| panic!("{name} at jobs=4: {e}"));
        assert!(!a.is_empty(), "{name}: empty trace at jobs=1");
        if a != b {
            diverged.push(format!(
                "{name}: jobs=1 digest {:#018X} ({} bytes) != jobs=4 digest {:#018X} ({} bytes)",
                Fnv::bytes(&a),
                a.len(),
                Fnv::bytes(&b),
                b.len(),
            ));
        }
    }

    // A cell's trace file is all `tcq analyze` needs: folding it gives
    // the report a live `ProfileSink` riding the same cell renders.
    let file = std::fs::File::open(dir1.join(cells[0].trace_file_name(0))).expect("cell 0 trace");
    let offline = profile_jsonl(std::io::BufReader::new(file)).expect("fold cell 0 trace");
    let live = std::sync::Arc::new(ProfileSink::new());
    cells[0]
        .execute(Tracer::new(live.clone()), SpanRecorder::disabled())
        .expect("cell 0 with a live profile sink");
    assert_eq!(render(&offline), render(&live.finish()));

    let _ = std::fs::remove_dir_all(&root);
    assert!(
        diverged.is_empty(),
        "per-cell traces diverged between serial and parallel execution — \
         a sink is shared across cells or a cell reads shared state:\n{}",
        diverged.join("\n")
    );
}
