//! Golden seed-stability test: cross-platform determinism guard.
//!
//! The study's methodology depends on bit-reproducible workloads: the
//! same seed must yield the same DAG (and therefore the same page-I/O
//! numbers) on every platform and in every future revision that does not
//! *intend* to change the generator. This test pins the paper's
//! canonical workload — the G5 family instance used in the README and
//! quickstart (n = 2000, F = 5, l = 200, seed 7) — to a golden FNV-1a
//! checksum of its arc list.
//!
//! Re-pinning: PINS.md (one protocol for every pin file).

use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::trace::Fnv;

/// FNV-1a over the arc list (each end little-endian), arcs in the
/// graph's canonical order.
fn arc_checksum(g: &tc_study::graph::Graph) -> u64 {
    let mut h = Fnv::new();
    for (u, v) in g.arcs() {
        h.u32(u);
        h.u32(v);
    }
    h.finish()
}

const GOLDEN_ARC_COUNT: usize = 9757;
const GOLDEN_CHECKSUM: u64 = 0xFA1F_67FE_29E6_93FB;

/// Every run below is repeated on the simulated disk and twice on the
/// file store, against a simulated-disk reference. The metrics are
/// backend-invariant by design, so all runs must agree.
fn backends() -> [Backend; 3] {
    [Backend::Sim, Backend::file_temp(), Backend::file_temp()]
}

#[test]
fn canonical_workload_matches_golden_checksum() {
    let g = canonical::graph();
    assert_eq!(
        (g.arc_count(), arc_checksum(&g)),
        (GOLDEN_ARC_COUNT, GOLDEN_CHECKSUM),
        "the canonical G5 workload (n=2000, F=5, l=200, seed 7) changed: \
         arc_count {} checksum {:#018X} — if intentional, update the golden \
         constants and note the workload break in CHANGES.md",
        g.arc_count(),
        arc_checksum(&g),
    );
}

#[test]
fn same_seed_same_workload_and_metrics() {
    // *Independent* generate + load + run pipelines must agree bit for
    // bit on the workload and on every page-I/O metric, on either backend.
    let run = |backend: Backend| {
        let g = canonical::graph();
        let checksum = arc_checksum(&g);
        let cfg = SystemConfig::with_buffer(20).backend(backend);
        let mut db = Database::build_for(&g, true, &cfg).unwrap();
        let full = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap();
        let ptc = db.run(&canonical::query(), Algorithm::Jkb2, &cfg).unwrap();
        (
            checksum,
            full.metrics.total_io(),
            full.metrics.tuples_generated,
            ptc.metrics.total_io(),
            ptc.metrics.answer_tuples,
        )
    };
    let reference = run(Backend::Sim);
    for backend in backends() {
        let name = backend.name();
        assert_eq!(
            reference,
            run(backend),
            "same seed produced diverging workload or metrics on {name}"
        );
    }
}

#[test]
fn random_policy_is_reproducible() {
    // The RANDOM replacement policy draws from tc-det's seeded stream;
    // its simulated I/O must also be run-to-run stable.
    let io = |backend: Backend| {
        let g = canonical::graph();
        let cfg = SystemConfig::with_buffer(20)
            .backend(backend)
            .page_policy(PagePolicy::Random);
        let mut db = Database::build_for(&g, false, &cfg).unwrap();
        db.run(&Query::full(), Algorithm::Btc, &cfg)
            .unwrap()
            .metrics
            .total_io()
    };
    let reference = io(Backend::Sim);
    for backend in backends() {
        let name = backend.name();
        assert_eq!(
            reference,
            io(backend),
            "RANDOM policy I/O diverged on {name}"
        );
    }
}
