//! The read path's cheaper decodes against what they replaced, kept
//! here as oracles: `Fnv::u32`'s zero-byte fast path against byte-wise
//! FNV-1a, `Page::checksum`'s byte reads against the lane hash fed the
//! page's words one block at a time, `RelationFile::probe_range`'s
//! in-page bisection against the linear slot scan,
//! `ClusteredRelation::probe`'s search inside the index page it fetched
//! against one request per key read, and `ReachIndex::reach`'s
//! one-page, one-entry lookup against the persisted entry. Equal
//! answers are not enough: each must also make the page requests its
//! reference makes, because those are what the study counts — for the
//! probe, the same requests with a page's consecutive repeats folded
//! into one, and so the same physical reads; for `reach`, one request
//! for the page of the chain-major labels file holding the entry, none
//! when `u` and `v` share a component, and only pages of column
//! `chain(v)` over a whole `path(u, v)` walk. The REACHINDEX engine
//! reads each label column once, over its sources' span.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tc_study::buffer::{BufferPool, PagePolicy};
use tc_study::core::prelude::*;
use tc_study::det::check::{self, Checker};
use tc_study::det::{require_eq, Rng};
use tc_study::graph::{condensation, DagGenerator, NodeId};
use tc_study::reach::{ChainDecomposition, NullMeter, ReachIndex};
use tc_study::storage::{
    ClusteredRelation, DiskSim, FileKind, Page, PageId, PageStore, Pager, RelationFile, Tuple,
    TuplePage, ValuePage, PAGE_SIZE, TUPLES_PER_PAGE, VALUES_PER_PAGE,
};
use tc_study::trace::{Event, Fnv, Kind, LaneHash, Phase, Tracer, VecSink};

/// FNV-1a 64, one byte at a time.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn fnv_u32_fast_path_is_bytewise_fnv1a() {
    let mut rng = Rng::from_seed(0xF17A);
    let mut values = vec![0, 1, 0xFF, 0x100, 0xFFFF, 0x1_0000, 0x00FF_0000, u32::MAX];
    for _ in 0..10_000 {
        // Both sides of the 16-bit boundary, densely.
        let x = rng.next_u32();
        values.push(x >> rng.random_range(0..32u32));
    }
    // Each value alone, and all of them as one running digest (the
    // fast path must leave the state right for whatever follows).
    let (mut running, mut bytes) = (Fnv::new(), Vec::new());
    for &x in &values {
        let mut h = Fnv::new();
        h.u32(x);
        assert_eq!(h.finish(), fnv1a(&x.to_le_bytes()), "{x:#x}");
        running.u32(x);
        bytes.extend(x.to_le_bytes());
    }
    assert_eq!(running.finish(), fnv1a(&bytes));
}

#[test]
fn fnv_event_digest_is_bytewise_over_a_mixed_stream() {
    let mut rng = Rng::from_seed(0xE7E7);
    let (mut h, mut bytes) = (Fnv::new(), Vec::new());
    for i in 0..4_000u64 {
        // Ids on both sides of the fast path's boundary.
        let mut id = || rng.next_u32() >> [0, 12, 20, 28][rng.random_range(0..4usize)];
        let (page, a, b) = (id(), id(), id());
        let kind = Kind::from_idx((i % 6) as usize);
        let (ev, tag, fields): (Event, u8, Vec<Vec<u8>>) = match i % 5 {
            0 => (
                Event::PageRead { page, kind },
                5,
                vec![page.to_le_bytes().into(), vec![kind.idx() as u8]],
            ),
            1 => (
                Event::BufMiss { page, read: true },
                10,
                vec![page.to_le_bytes().into(), vec![1]],
            ),
            2 => (
                Event::Retry {
                    n: i,
                    backoff_ms: a as u64,
                },
                15,
                vec![i.to_le_bytes().into(), (a as u64).to_le_bytes().into()],
            ),
            3 => (
                Event::TupleEmit { source: a, node: b },
                27,
                vec![a.to_le_bytes().into(), b.to_le_bytes().into()],
            ),
            _ => (
                Event::ChainAssigned {
                    comp: page,
                    chain: a,
                    pos: b,
                },
                36,
                vec![
                    page.to_le_bytes().into(),
                    a.to_le_bytes().into(),
                    b.to_le_bytes().into(),
                ],
            ),
        };
        h.event(&ev);
        bytes.push(tag);
        bytes.extend(fields.concat());
    }
    assert_eq!(h.finish(), fnv1a(&bytes));
}

#[test]
fn page_checksum_is_the_lane_hash_of_its_words() {
    let mut rng = Rng::from_seed(0xC4EC);
    let mut page = Page::new();
    for case in 0..64 {
        // Zero, sparse and dense pages: a few random bytes, or all.
        let writes = [0, 1, 16, PAGE_SIZE][case % 4];
        for _ in 0..writes {
            let at = rng.random_range(0..PAGE_SIZE);
            page.bytes_mut()[at] = rng.next_u32() as u8;
        }
        let words: Vec<u64> = page
            .bytes()
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        let lanes = words
            .chunks(LaneHash::LANES)
            .fold(LaneHash::new(), |h, block| h.block(block));
        assert_eq!(
            page.checksum(),
            lanes.finish(PAGE_SIZE as u64),
            "case {case}"
        );
    }
    assert_eq!(Page::ZERO_CHECKSUM, Page::new().checksum());
}

/// Appends `len` tuples of `key` with distinct values.
fn push_run(data: &mut Vec<Tuple>, key: u32, len: usize) {
    let at = data.len() as u32;
    data.extend((0..len as u32).map(|d| (key, at + d)));
}

/// `probe_range` as it was: every slot from the top of each page.
fn probe_linear(
    rel: &RelationFile,
    pager: &mut DiskSim,
    key: u32,
    lo: usize,
    hi: usize,
    out: &mut Vec<u32>,
) {
    for i in lo..=hi.min(rel.page_count().saturating_sub(1)) {
        let count = rel.tuples_on_page(i);
        let mut past_key = false;
        pager
            .with_page(rel.pages()[i], |pg: &Page| {
                for slot in 0..count {
                    let (k, v) = TuplePage::get(pg, slot);
                    if k == key {
                        out.push(v);
                    } else if k > key {
                        past_key = true;
                        break;
                    }
                }
            })
            .unwrap();
        if past_key {
            break;
        }
    }
}

#[test]
fn probe_range_bisection_matches_the_linear_scan() {
    let mut rng = Rng::from_seed(0xB15E);
    for case in 0..40 {
        // Even keys only, so every odd key is absent; run lengths from
        // one tuple to three pages' worth; the first relations are
        // shaped by hand for the boundary cases.
        let mut data: Vec<Tuple> = Vec::new();
        match case {
            // Key 2 starts mid-page and covers all of the next two.
            0 => {
                push_run(&mut data, 0, 100);
                push_run(&mut data, 2, 2 * TUPLES_PER_PAGE + 156);
                push_run(&mut data, 4, 10);
            }
            // Key 2 ends exactly on a page boundary, then on the file's.
            1 => {
                push_run(&mut data, 0, 56);
                push_run(&mut data, 2, 200);
                push_run(&mut data, 4, TUPLES_PER_PAGE);
            }
            _ => {
                let mut key = 2 * rng.random_range(0..3u32);
                let tuples = rng.random_range(1..1500usize);
                while data.len() < tuples {
                    let len = match rng.random_range(0..10u32) {
                        0 => rng.random_range(200..800usize),
                        _ => rng.random_range(1..12usize),
                    };
                    push_run(&mut data, key, len);
                    key += 2 * rng.random_range(1..4u32);
                }
            }
        }
        let mut disk = DiskSim::new();
        let rel = RelationFile::bulk_load(&mut disk, FileKind::Relation, &data).unwrap();
        let last = rel.page_count() - 1;
        let max_key = data[data.len() - 1].0;
        for key in 0..=max_key + 2 {
            // The whole file, and every narrower range a sparse-index
            // probe could produce for the key (plus a page of slack).
            let first = (data.partition_point(|t| t.0 < key) / TUPLES_PER_PAGE).min(last);
            for (lo, hi) in [(0, last), (first, last), (first.saturating_sub(1), first)] {
                let (mut fast, mut slow) = (Vec::new(), Vec::new());
                let before = disk.stats().reads;
                rel.probe_range(&mut disk, key, lo, hi, &mut fast).unwrap();
                let fast_reads = disk.stats().reads - before;
                probe_linear(&rel, &mut disk, key, lo, hi, &mut slow);
                let slow_reads = disk.stats().reads - before - fast_reads;
                assert_eq!(fast, slow, "case {case} key {key} pages {lo}..={hi}");
                assert_eq!(
                    fast_reads, slow_reads,
                    "case {case} key {key} pages {lo}..={hi}: pages requested"
                );
            }
        }
    }
}

/// `ClusteredRelation::probe` as it was: two bisections over the sparse
/// keys, one request per key read. Returns the page range and the index
/// page each request went to, in order.
fn probe_per_key<P: Pager>(
    index_pages: &[PageId],
    entries: usize,
    pager: &mut P,
    key: u32,
) -> (Option<(usize, usize)>, Vec<PageId>) {
    let mut requests = Vec::new();
    if entries == 0 {
        return (None, requests);
    }
    let mut read_key = |pager: &mut P, i: usize| {
        let pid = index_pages[i / VALUES_PER_PAGE];
        requests.push(pid);
        pager
            .with_page(pid, |pg: &Page| ValuePage::get(pg, i % VALUES_PER_PAGE))
            .unwrap()
    };
    let (mut a, mut b) = (0usize, entries);
    while a < b {
        let mid = (a + b) / 2;
        if read_key(pager, mid) >= key {
            b = mid;
        } else {
            a = mid + 1;
        }
    }
    let first_ge = a;
    let (mut a, mut b) = (0usize, entries);
    while a < b {
        let mid = (a + b) / 2;
        if read_key(pager, mid) <= key {
            a = mid + 1;
        } else {
            b = mid;
        }
    }
    let last_le = a.saturating_sub(1);
    let lo = first_ge.saturating_sub(1).min(entries - 1);
    (Some((lo, last_le.max(lo))), requests)
}

/// A clustered relation on even keys (every odd key is absent, and so
/// are 0 and 1, below the first), one case in four past 512 data pages
/// so the index spans two or three pages. Every relation holds a run of
/// at least three data pages and a run that starts on a page's first
/// slot.
fn clustered_relation(rng: &mut Rng) -> Vec<Tuple> {
    let pages = match rng.random_range(0..4u32) {
        0 => rng.random_range(VALUES_PER_PAGE + 1..3 * VALUES_PER_PAGE),
        _ => rng.random_range(4..40usize),
    };
    let tuples = pages * TUPLES_PER_PAGE - rng.random_range(0..TUPLES_PER_PAGE);
    let long_at = rng.random_range(0..tuples / 2);
    let aligned_at = rng.random_range(0..tuples / 2);
    let (mut long, mut aligned) = (false, false);
    let mut data: Vec<Tuple> = Vec::new();
    let mut key = 2 * rng.random_range(1..4u32);
    while data.len() < tuples {
        if !aligned && data.len() >= aligned_at {
            // Stretch the run before it to the end of its page.
            if let Some(&(prev, _)) = data.last() {
                let pad = (TUPLES_PER_PAGE - data.len() % TUPLES_PER_PAGE) % TUPLES_PER_PAGE;
                push_run(&mut data, prev, pad);
            }
            aligned = true;
        }
        let len = if !long && data.len() >= long_at {
            long = true;
            rng.random_range(2 * TUPLES_PER_PAGE + 1..4 * TUPLES_PER_PAGE)
        } else if rng.random_range(0..10u32) == 0 {
            rng.random_range(200..800usize)
        } else {
            rng.random_range(1..12usize)
        };
        push_run(&mut data, key, len);
        key += 2 * rng.random_range(1..4u32);
    }
    data
}

/// The relation of `data` and its index on a fresh simulated disk.
fn indexed(data: &[Tuple]) -> (DiskSim, ClusteredRelation) {
    let mut disk = DiskSim::new();
    let rel = ClusteredRelation::bulk_load(&mut disk, FileKind::Relation, data).unwrap();
    (disk, rel)
}

#[test]
fn probe_searches_the_index_page_it_fetched() {
    Checker::new("probe_searches_the_index_page_it_fetched")
        .cases(48)
        .run(
            |rng| rng.next_u64(),
            check::shrink_none,
            |&seed| {
                let mut rng = Rng::from_seed(seed);
                let data = clustered_relation(&mut rng);
                let (mut disk, idx) = indexed(&data);
                let rel = idx.tuples();
                let index_pages = disk.file_page_ids(idx.keys().file_id()).unwrap();
                let entries = rel.page_count();
                require_eq!(index_pages.len(), entries.div_ceil(VALUES_PER_PAGE));

                // Every key around a page boundary, the ends, and a sample of
                // the rest (all of them on a small relation).
                let max_key = data[data.len() - 1].0;
                let mut keys = vec![0, 1, max_key + 1, max_key + 2, u32::MAX];
                for k in data.iter().step_by(TUPLES_PER_PAGE).map(|t| t.0) {
                    keys.extend([k.saturating_sub(1), k, k + 1]);
                }
                if entries <= 64 {
                    keys.extend(0..=max_key);
                } else {
                    keys.extend((0..600).map(|_| rng.random_range(0..max_key + 3)));
                }

                // The same requests, one pool per side, other data pages
                // touched in between so index pages get evicted.
                let frames = rng.random_range(2..5usize);
                let pool = |store| BufferPool::new(store, frames, PagePolicy::Lru);
                let (mut new, mut old) = (pool(indexed(&data).0), pool(indexed(&data).0));
                for (i, &key) in keys.iter().enumerate() {
                    let (range, requests) = probe_per_key(&index_pages, entries, &mut disk, key);
                    let before = disk.stats().reads;
                    require_eq!(
                        idx.probe(&mut disk, key).unwrap(),
                        range,
                        "key {key}: page range"
                    );
                    // On the bare disk every request is a read.
                    let key_reads = requests.len();
                    let mut runs = requests;
                    runs.dedup();
                    require_eq!(
                        disk.stats().reads - before,
                        runs.len() as u64,
                        "key {key}: index requests ({key_reads} key reads)"
                    );
                    if index_pages.len() == 1 {
                        require_eq!(runs.len(), 1, "key {key}: a one-page index");
                    }

                    if rng.random_range(0..3u32) == 0 {
                        let pid = rel.pages()[rng.random_range(0..entries)];
                        for side in [&mut new, &mut old] {
                            side.with_page(pid, |_: &Page| ()).unwrap();
                        }
                    }
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    idx.children(&mut new, key, &mut got).unwrap();
                    let (range, _) = probe_per_key(&index_pages, entries, &mut old, key);
                    let (lo, hi) = range.unwrap();
                    rel.probe_range(&mut old, key, lo, hi, &mut want).unwrap();
                    require_eq!(got, want, "key {key}: children");
                    let from = data.partition_point(|t| t.0 < key);
                    let to = data.partition_point(|t| t.0 <= key);
                    let stored: Vec<u32> = data[from..to].iter().map(|t| t.1).collect();
                    require_eq!(got, stored, "key {key}: children against the data");
                    require_eq!(
                        new.store().stats().reads,
                        old.store().stats().reads,
                        "after key {key} (probe {i}) through {frames} frames: physical reads"
                    );
                    require_eq!(new.stats().misses, old.stats().misses, "after key {key}");
                }
                Ok(())
            },
        );
}

#[test]
fn label_lookups_request_only_the_page_of_their_column_entry() {
    let g = DagGenerator::new(240, 3.0, 30).seed(21).generate();
    // Two identical builds, so both pools start in the same state.
    let build = || {
        let mut pool = BufferPool::new(DiskSim::new(), 3, PagePolicy::Lru);
        let idx = ReachIndex::build(&mut pool, &g, &Tracer::disabled(), &mut NullMeter).unwrap();
        (pool, idx)
    };
    let ((mut fast_pool, idx), (mut ref_pool, _)) = (build(), build());
    let n = idx.condensation().component_count();
    assert!(
        !VALUES_PER_PAGE.is_multiple_of(n),
        "some columns must straddle pages for the test to mean anything (N = {n})"
    );
    let labels = ref_pool
        .store()
        .file_pages(idx.files()[1])
        .unwrap()
        .to_vec();
    // A third build, read outside both pools, so neither's counters move:
    // every component's persisted row.
    let mut disk = DiskSim::new();
    let whole = ReachIndex::build(&mut disk, &g, &Tracer::disabled(), &mut NullMeter).unwrap();
    let all: Vec<NodeId> = (0..n as NodeId).collect();
    let mut rows = Vec::new();
    whole
        .label_rows(&mut disk, &all, &mut NullMeter, &mut rows)
        .unwrap();
    let k = idx.width();
    let cd = idx.decomposition();
    let mut later_pages = 0;
    for u in 0..g.n() as NodeId {
        for v in 0..g.n() as NodeId {
            let fast = idx.reach(&mut fast_pool, u, v).unwrap();
            let (a, b) = (idx.component(u), idx.component(v));
            if a != b {
                // The reference requests the entry's page and nothing else.
                let c = cd.chain_of[b as usize];
                let at = c as usize * n + a as usize;
                ref_pool
                    .with_page(labels[at / VALUES_PER_PAGE], |_| ())
                    .unwrap();
                if at / VALUES_PER_PAGE != c as usize * n / VALUES_PER_PAGE {
                    later_pages += 1;
                }
                let persisted = rows[a as usize * k + c as usize] <= cd.pos_of[b as usize];
                assert_eq!(fast, persisted, "reach({u}, {v}) vs its persisted entry");
            }
            assert_eq!(fast, idx.reach_mem(u, v), "reach({u}, {v}) vs memory");
            assert_eq!(fast_pool.stats(), ref_pool.stats(), "after reach({u}, {v})");
            assert_eq!(fast_pool.store().stats(), ref_pool.store().stats());
        }
    }
    assert!(
        later_pages > 0,
        "no lookup landed past a column's first page"
    );
    assert!(fast_pool.stats().evictions > 0, "the pool never filled");

    // A path walk toward v tests L[y][chain(v)] for child after child y:
    // every label page it requests lies in column chain(v). The graph is
    // large enough that a column spans several pages and a page holds
    // mostly one column.
    let g = DagGenerator::new(1500, 3.0, 60).seed(22).generate();
    let snap = ClosedSnapshot::build(&g, &SystemConfig::with_buffer(12)).unwrap();
    let idx = snap.reach_index();
    let n = idx.condensation().component_count();
    let labels = snap
        .open_store()
        .file_pages(idx.files()[1])
        .unwrap()
        .to_vec();
    let page_of: HashMap<u32, usize> = labels.iter().enumerate().map(|(i, p)| (p.0, i)).collect();
    let mut rng = Rng::from_seed(0xC01);
    let (mut walks, mut requests) = (0, 0);
    while walks < 200 {
        let u = rng.random_range(0..g.n()) as NodeId;
        let v = rng.random_range(0..g.n()) as NodeId;
        // Read straight from a store, so every request is a traced read.
        let mut store = snap.open_store();
        let sink = Arc::new(VecSink::unbounded());
        store.set_tracer(Tracer::new(sink.clone()));
        let Some(hops) = snap.path(&mut store, u, v).unwrap() else {
            continue;
        };
        walks += 1;
        let c = idx.decomposition().chain_of[idx.component(v) as usize] as usize;
        let column = c * n / VALUES_PER_PAGE..=((c + 1) * n - 1) / VALUES_PER_PAGE;
        for e in sink.events() {
            let Event::PageRead { page, .. } = e else {
                continue;
            };
            if let Some(&i) = page_of.get(&page) {
                requests += 1;
                assert!(
                    column.contains(&i),
                    "path({u}, {v}) via {hops:?}: label page {i} is outside column {c} \
                     (pages {column:?})"
                );
            }
        }
    }
    assert!(
        requests > 2 * walks,
        "walks tested too few children to mean anything ({requests} label requests)"
    );
}

#[test]
fn reachindex_reads_each_label_column_once_over_its_sources_span() {
    let g = DagGenerator::new(1500, 3.0, 60).seed(23).generate();
    let cond = condensation(&g);
    let n = cond.component_count();
    let k = ChainDecomposition::of(&cond.graph, &Tracer::disabled(), &mut NullMeter)
        .unwrap()
        .width();
    assert!(
        n > 2 * VALUES_PER_PAGE,
        "a column must span pages (N = {n})"
    );
    // Sources named by component: a narrow window in the middle, a wide
    // one, and a single source.
    let by_comp = |lo: usize, hi: usize, step: usize| -> Vec<NodeId> {
        (0..g.n() as NodeId)
            .filter(|&v| {
                let a = cond.component[v as usize] as usize;
                (lo..hi).contains(&a) && a.is_multiple_of(step)
            })
            .collect()
    };
    let queries = [
        by_comp(n / 2, n / 2 + 40, 3),
        by_comp(n / 8, n - n / 8, 97),
        by_comp(n / 3, n / 3 + 1, 1),
    ];
    for sources in queries {
        let comps: Vec<usize> = sources
            .iter()
            .map(|&s| cond.component[s as usize] as usize)
            .collect();
        let (lo, hi) = (
            comps.iter().min().copied().unwrap(),
            comps.iter().max().copied().unwrap(),
        );
        let sink = Arc::new(VecSink::unbounded());
        let cfg = SystemConfig::with_buffer(10)
            .validated()
            .traced(Tracer::new(sink.clone()));
        let mut db = Database::build(&g, false).unwrap();
        db.run(
            &Query::partial(sources.clone()),
            Algorithm::ReachIndex,
            &cfg,
        )
        .unwrap();
        let events = sink.events();
        // The labels file is the run's one successor-list file; its pages
        // are allocated in position order.
        let labels: Vec<u32> = events
            .iter()
            .filter_map(|e| match *e {
                Event::PageAlloc {
                    page,
                    kind: Kind::SuccessorList,
                } => Some(page),
                _ => None,
            })
            .collect();
        assert_eq!(labels.len(), (n * k).div_ceil(VALUES_PER_PAGE));
        let compute = events
            .iter()
            .position(|e| {
                matches!(
                    e,
                    Event::PhaseBegin {
                        phase: Phase::Compute
                    }
                )
            })
            .expect("a compute phase");
        let mut requested: BTreeMap<usize, usize> = BTreeMap::new();
        for e in &events[compute..] {
            if let Event::BufHit { page, .. } | Event::BufMiss { page, .. } = *e {
                if let Some(i) = labels.iter().position(|&p| p == page) {
                    *requested.entry(i).or_default() += 1;
                }
            }
        }
        // Column c's span is values c·N + lo ..= c·N + hi.
        let spans: Vec<_> = (0..k)
            .map(|c| (c * n + lo) / VALUES_PER_PAGE..=(c * n + hi) / VALUES_PER_PAGE)
            .collect();
        for (&i, &times) in &requested {
            let chains = spans.iter().filter(|s| s.contains(&i)).count();
            assert!(
                chains > 0,
                "{} sources: label page {i} lies outside every span",
                sources.len()
            );
            assert!(
                times <= chains,
                "{} sources: label page {i} requested {times} times, spans {chains} chains",
                sources.len()
            );
        }
        if sources.len() == 1 {
            assert!(
                requested.len() <= k + 1,
                "one source read {} label pages, k = {k}",
                requested.len()
            );
        }
    }
}
