//! Cross-algorithm differential harness for the reachability index.
//!
//! `REACHINDEX` answers queries from a persisted chain-decomposition
//! label structure instead of traversing the graph at query time, so
//! nothing about its implementation is shared with the eight 1994
//! algorithms — which makes agreement between them strong evidence for
//! both sides. This suite holds the index to three contracts on the
//! canonical G5 workload (n = 2000, F = 5, l = 200, seed 7, 20-page
//! buffer, the canonical sources):
//!
//! 1. **Answer equivalence** — the index's answer tuples are
//!    bit-identical to every one of the eight algorithms', on both the
//!    simulated and the file-backed store, for partial *and* full
//!    closure.
//! 2. **Backend invariance** — metrics and FNV-1a trace digests are
//!    bit-identical between the two backends (the index's page reads
//!    flow through the same `PageStore` contract as everything else).
//! 3. **Observability** — `metrics ≡ replay(trace)` holds for index
//!    runs, and the trace actually contains the chain/label events
//!    (`chain_assigned`, `chains_built`, `labels_built`) the index
//!    emits during restructuring.

use std::sync::Arc;
use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::graph::{closure, DagGenerator};
use tc_study::storage::Backend;
use tc_study::trace::{replay, DigestSink, Event, Tracer, VecSink};

#[test]
fn index_answers_match_all_eight_algorithms_on_g5() {
    let g = canonical::graph();
    let mut db = Database::build(&g, true).expect("build database");
    let cfg = SystemConfig::with_buffer(20).collecting();
    let idx_res = db
        .run(&canonical::query(), Algorithm::ReachIndex, &cfg)
        .expect("index run");
    let idx_answer = idx_res.answer.as_deref().expect("collected answer");

    // Oracle first, then each of the paper's algorithms.
    let oracle = closure::ptc_answer(&g, &canonical::SOURCES);
    assert_eq!(idx_answer, &oracle[..], "REACHINDEX vs ptc_answer oracle");
    for algo in Algorithm::ALL {
        let res = db.run(&canonical::query(), algo, &cfg).expect("run");
        assert_eq!(
            idx_answer,
            res.answer.as_deref().expect("collected"),
            "REACHINDEX vs {algo} on canonical G5"
        );
    }
}

#[test]
fn index_full_closure_matches_btc_on_g5() {
    let g = canonical::graph();
    let mut db = Database::build(&g, false).expect("build database");
    let cfg = SystemConfig::with_buffer(20).collecting();
    let idx = db
        .run(&Query::full(), Algorithm::ReachIndex, &cfg)
        .expect("index run");
    let btc = db
        .run(&Query::full(), Algorithm::Btc, &cfg)
        .expect("btc run");
    assert_eq!(idx.answer, btc.answer, "full closure: REACHINDEX vs BTC");
    assert_eq!(idx.metrics.answer_tuples, btc.metrics.answer_tuples);
}

/// One index run on the given backend, everything comparable captured.
fn observe(backend: Backend) -> (u64, u64, tc_study::trace::Counts, u64, u64) {
    let g = canonical::graph();
    let base = SystemConfig::with_buffer(20).backend(backend.clone());
    let mut db = Database::build_for(&g, true, &base).expect("build database");
    let sink = Arc::new(DigestSink::new());
    let cfg = base.traced(Tracer::new(sink.clone()));
    let res = db
        .run(&canonical::query(), Algorithm::ReachIndex, &cfg)
        .expect("run");
    let d = sink.digest();
    (
        d.hash,
        d.count,
        res.metrics.counts.clone(),
        res.metrics.total_io(),
        res.metrics.answer_tuples,
    )
}

#[test]
fn index_is_bit_identical_on_sim_and_file_backends() {
    let sim = observe(Backend::Sim);
    let file = observe(Backend::file_temp());
    assert_eq!(
        (sim.0, sim.1),
        (file.0, file.1),
        "trace digest diverged between sim and file backends"
    );
    assert_eq!(
        sim.2,
        file.2,
        "cost metrics diverged; field diff:\n{}",
        sim.2.diff(&file.2).join("\n")
    );
    assert_eq!(sim.3, file.3, "total_io diverged");
    assert_eq!(sim.4, file.4, "answer_tuples diverged");
}

#[test]
fn replay_reconstructs_index_metrics_and_sees_chain_events() {
    let g = canonical::graph();
    let mut db = Database::build(&g, true).expect("build database");
    let sink = Arc::new(VecSink::unbounded());
    let cfg = SystemConfig::with_buffer(20).traced(Tracer::new(sink.clone()));
    let res = db
        .run(&canonical::query(), Algorithm::ReachIndex, &cfg)
        .expect("run");
    let events = sink.events();

    // The new events must be present and self-consistent: one
    // ChainAssigned per condensation node, one ChainsBuilt, one
    // LabelsBuilt whose entry count is chains × components.
    let mut assigned = 0u64;
    let mut summary = None;
    let mut labels = None;
    for e in &events {
        match *e {
            Event::ChainAssigned { .. } => assigned += 1,
            Event::ChainsBuilt { chains, components } => summary = Some((chains, components)),
            Event::LabelsBuilt { entries, finite } => labels = Some((entries, finite)),
            _ => {}
        }
    }
    let (chains, components) = summary.expect("ChainsBuilt missing from index trace");
    let (entries, finite) = labels.expect("LabelsBuilt missing from index trace");
    assert_eq!(assigned, components, "one ChainAssigned per component");
    assert_eq!(entries, chains * components, "label matrix is k × n");
    assert!(finite <= entries, "finite labels bounded by entries");
    assert!(chains >= 1 && chains <= components);

    // And the replay oracle still balances with the new events in the
    // stream (they are observability-only; replay must not choke).
    let replayed = replay(events).expect("replay");
    assert_eq!(
        replayed,
        res.metrics.counts,
        "replay(trace) != metrics; field diff:\n{}",
        res.metrics.counts.diff(&replayed).join("\n")
    );
}

#[test]
fn index_validated_mode_passes_and_agrees_on_small_grid() {
    // `validated()` makes the engine assert answers against the oracle
    // internally; a clean pass is the assertion. Cover extreme shapes:
    // a path (k = 1), an antichain (k = n), a tree, and a layered DAG.
    let graphs = vec![
        ("path", tc_study::graph::gen::path(300)),
        ("tree", tc_study::graph::gen::binary_tree(255)),
        ("layered", tc_study::graph::gen::layered(12, 12)),
        ("dense", DagGenerator::new(400, 10.0, 15).seed(3).generate()),
    ];
    for (name, g) in graphs {
        let expect = closure::ptc_answer(&g, &[0, 7, (g.n() / 2) as u32]);
        let mut db = Database::build(&g, true).expect("build");
        let cfg = SystemConfig::default().validated().collecting();
        let res = db
            .run(
                &Query::partial(vec![0, 7, (g.n() / 2) as u32]),
                Algorithm::ReachIndex,
                &cfg,
            )
            .expect("run");
        assert_eq!(
            res.answer.as_deref().expect("collected"),
            &expect[..],
            "REACHINDEX on {name}"
        );
    }
}

#[test]
fn index_handles_cyclic_inputs_through_condensation() {
    // A graph with nontrivial SCCs: the engine's cyclic path condenses
    // first, and members of a cyclic component must reach themselves.
    use tc_study::graph::Graph;
    let g = Graph::from_arcs(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5)]);
    let sources: Vec<u32> = (0..6).collect();
    let expect = closure::ptc_answer(&g, &sources);
    let cyc = run_cyclic(
        &g,
        &Query::partial(sources),
        Algorithm::ReachIndex,
        &SystemConfig::default().collecting(),
    )
    .expect("cyclic run");
    assert_eq!(cyc.answer, expect);
}
