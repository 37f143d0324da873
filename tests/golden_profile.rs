//! Golden profile test: pins the rendered `tc-profile` report of every
//! algorithm on the canonical G5 workload, and proves the profile's
//! attribution agrees with the engine's own [`CostMetrics`] bit for bit.
//!
//! Three layers measure the same run independently — the engine's
//! snapshot-delta metrics, the trace⇒metrics replay (`golden_trace.rs`),
//! and the profile fold (this test). Attribution equality here closes
//! the triangle: profile ≡ metrics ≡ replay.
//!
//! Re-pinning: PINS.md (one protocol for every pin file).

use std::sync::Arc;
use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::profile::{profile_events, render, ProfileSink};
use tc_study::trace::{Fnv, Tracer, VecSink};

/// Pinned digest of each algorithm's rendered profile report on the
/// canonical G5 workload, in `Algorithm::ALL` order.
const GOLDEN: [(&str, u64); 8] = [
    ("BTC", 0xF3BA3A852C9BA214),
    ("HYB", 0x478689284B630285),
    ("BJ", 0xB7A79B2304D72C1B),
    ("SRCH", 0xE89D9D17C8718BE8),
    ("SPN", 0x829DC7403A793B77),
    ("JKB", 0x90C1F91E145737D5),
    ("JKB2", 0x6A02C4A2A66DD3A3),
    ("SEMINAIVE", 0x62CED9037ED566B8),
];

const BUFFER_PAGES: usize = 20;

fn canonical_db() -> Database {
    Database::build(&canonical::graph(), true).unwrap()
}

#[test]
fn profile_attribution_equals_cost_metrics_for_every_algorithm() {
    let mut db = canonical_db();
    let mut table = Vec::new();
    for algo in Algorithm::ALL {
        let sink = Arc::new(ProfileSink::new());
        let cfg = SystemConfig::with_buffer(BUFFER_PAGES).traced(Tracer::new(sink.clone()));
        let res = db.run(&canonical::query(), algo, &cfg).unwrap();
        let m = &res.metrics;
        let p = sink.finish();

        // ---- Page I/O attribution: profile ≡ CostMetrics, per phase…
        let (r, c) = (p.restructure_io(), p.compute_io());
        assert_eq!(
            (r.reads, r.writes),
            (m.restructure_io.reads, m.restructure_io.writes),
            "{algo}: restructure-phase attribution drifted"
        );
        assert_eq!(
            (c.reads, c.writes),
            (m.compute_io.reads, m.compute_io.writes),
            "{algo}: compute-phase attribution drifted"
        );
        // …and per file kind.
        for (k, (&reads, &writes)) in m
            .disk
            .reads_by_kind
            .iter()
            .zip(&m.disk.writes_by_kind)
            .enumerate()
        {
            let io = p.io_by_kind(k);
            assert_eq!(
                (io.reads, io.writes),
                (reads, writes),
                "{algo}: kind-{k} attribution drifted"
            );
        }

        // ---- Buffer analytics: per-kind sums ≡ pool counters.
        let b = p.buffer_totals();
        assert_eq!(b.requests, m.buffer.requests, "{algo}: requests");
        assert_eq!(b.hits, m.buffer.hits, "{algo}: hits");
        assert_eq!(b.misses, m.buffer.misses, "{algo}: misses");
        assert_eq!(b.read_requests, m.buffer.read_requests, "{algo}");
        assert_eq!(b.read_hits, m.buffer.read_hits, "{algo}: read hits");
        assert_eq!(b.evictions, m.buffer.evictions, "{algo}: evictions");
        assert_eq!(
            b.dirty_writebacks, m.buffer.dirty_writebacks,
            "{algo}: dirty evictions"
        );
        assert_eq!(b.flush_writes, m.buffer.flush_writes, "{algo}: flushes");

        // ---- Miss classes partition the misses; residency respects the
        // pool bound; a fault-free run never fails a fetch.
        assert_eq!(p.miss_totals().total(), b.misses, "{algo}: partition");
        assert!(
            p.max_resident <= BUFFER_PAGES as u64,
            "{algo}: {} pages resident in a {BUFFER_PAGES}-frame pool",
            p.max_resident
        );
        assert_eq!(p.failed_requests, 0, "{algo}: failed requests");

        // ---- Logical work mirrors the misleading-metric counters.
        assert_eq!(p.counts.tuples_generated, m.tuples_generated, "{algo}");
        assert_eq!(p.counts.unions, m.unions, "{algo}: unions");
        assert_eq!(p.counts.list_fetches, m.list_fetches, "{algo}");
        assert_eq!(p.counts.tuple_reads, m.tuple_reads, "{algo}");
        assert_eq!(p.counts.tuple_writes, m.tuple_writes, "{algo}");

        table.push((algo.name(), Fnv::bytes(render(&p).as_bytes())));
    }

    let rendered = table
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018X}),"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(
        table, GOLDEN,
        "the canonical G5 profile reports changed — if intentional, \
         replace the GOLDEN table with:\n{rendered}\nand note the break \
         in CHANGES.md",
    );
}

#[test]
fn live_profile_sink_equals_offline_fold_on_golden_g5() {
    // SRCH has the smallest canonical stream; capture it once and fold
    // it offline — the live sink must have produced the same profile.
    let mut db = canonical_db();
    let vec_sink = Arc::new(VecSink::unbounded());
    let prof_sink = Arc::new(ProfileSink::new());
    let tee = Arc::new(tc_study::trace::TeeSink::new(vec![
        vec_sink.clone(),
        prof_sink.clone(),
    ]));
    let cfg = SystemConfig::with_buffer(BUFFER_PAGES).traced(Tracer::new(tee));
    db.run(&canonical::query(), Algorithm::Srch, &cfg).unwrap();
    let offline = profile_events(vec_sink.events().iter().cloned());
    let live = prof_sink.finish();
    assert_eq!(render(&live), render(&offline));
    assert_eq!(live.events, offline.events);
    assert_eq!(live.total_io(), offline.total_io());
}
