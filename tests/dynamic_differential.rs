//! Differential gate for dynamic maintenance on the canonical G5
//! workload: after every batch of the canonical seeded update stream,
//! the incrementally maintained closure must be bit-identical to a
//! from-scratch recompute — tuples, per-apply `metrics ≡ replay(trace)`,
//! and trace digests — on both storage backends.
//!
//! The stream is mixed churn, so the maintenance sweep sees rows that
//! gain successors, rows that lose them and rows that do both; an
//! assertion below holds the stream to that.

use std::sync::Arc;
use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::graph::{closure, Graph, NodeId, UpdateOp};
use tc_study::storage::Backend;
use tc_study::trace::{replay, Counts, DigestSink, Tracer, VecSink};

fn oracle(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
    closure::ptc_answer(g, &all)
}

#[test]
fn canonical_stream_exercises_both_paths() {
    let g = canonical::graph();
    let s = canonical::update_stream(&g);
    let inserts = s.insert_count();
    assert!(inserts > 0, "canonical stream has no inserts");
    assert!(s.op_count() > inserts, "canonical stream has no deletes");
}

#[test]
fn incremental_equals_scratch_after_every_batch() {
    let g = canonical::graph();
    // One VecSink across the whole stream; each apply's events are the
    // slice appended since the previous apply (every apply is one
    // complete RunBegin..RunEnd envelope).
    let sink = Arc::new(VecSink::unbounded());
    let cfg = SystemConfig::with_buffer(20).traced(Tracer::new(sink.clone()));
    let mut dyn_tc = DynamicClosure::build(&g, &cfg).expect("build");
    let scratch_cfg = SystemConfig::with_buffer(20);
    let mut live = g.clone();
    let mut seen = 0usize;
    for (i, batch) in canonical::update_stream(&g).batches().iter().enumerate() {
        for op in batch {
            match *op {
                UpdateOp::Insert(u, v) => live.add_arc(u, v),
                UpdateOp::Delete(u, v) => live.remove_arc(u, v),
            };
        }
        let res = dyn_tc.apply(batch).expect("apply");

        // metrics ≡ replay for this apply's event slice.
        let events = sink.events();
        let replayed = replay(events[seen..].iter().cloned()).expect("replay");
        seen = events.len();
        let expected = res.metrics.counts;
        assert_eq!(
            replayed,
            expected,
            "batch {i}: replay(trace) != metrics; field diff:\n{}",
            expected.diff(&replayed).join("\n")
        );

        // Incremental tuples == in-memory oracle == a from-scratch
        // rebuild read back through the disk roundtrip.
        let tuples = dyn_tc.tuples().expect("scan");
        assert_eq!(tuples, oracle(&live), "batch {i}: diverged from oracle");
        let mut scratch = DynamicClosure::build(&live, &scratch_cfg).expect("scratch build");
        assert_eq!(
            tuples,
            scratch.tuples().expect("scratch scan"),
            "batch {i}: incremental != from-scratch rebuild"
        );
        assert_eq!(
            dyn_tc.tuple_count(),
            scratch.tuple_count(),
            "batch {i}: tuple counts diverged"
        );
    }
}

/// Everything one maintenance stream exposes, in comparable form.
struct Observed {
    digest_hash: u64,
    digest_count: u64,
    per_batch: Vec<(u64, u64, u64, Counts)>,
    final_tuples: usize,
}

/// Runs the canonical stream on the given backend: one DigestSink folds
/// the whole trace, and each apply contributes its tuple delta, total
/// I/O and replay-comparable metrics view.
fn run_stream(backend: Backend) -> Observed {
    let g = canonical::graph();
    let sink = Arc::new(DigestSink::new());
    let cfg = SystemConfig::with_buffer(20)
        .backend(backend.clone())
        .traced(Tracer::new(sink.clone()));
    let mut dyn_tc = DynamicClosure::build(&g, &cfg).expect("build");
    assert_eq!(dyn_tc.backend_name(), backend.name(), "wrong backend");
    let mut per_batch = Vec::new();
    for batch in canonical::update_stream(&g).batches() {
        let res = dyn_tc.apply(batch).expect("apply");
        per_batch.push((
            res.inserted,
            res.removed,
            res.metrics.total_io(),
            res.metrics.counts,
        ));
    }
    let d = sink.digest();
    Observed {
        digest_hash: d.hash,
        digest_count: d.count,
        per_batch,
        final_tuples: dyn_tc.tuple_count(),
    }
}

#[test]
fn maintenance_is_bit_identical_on_sim_and_file() {
    let sim = run_stream(Backend::Sim);
    let file = run_stream(Backend::file_temp());
    assert_eq!(
        (sim.digest_hash, sim.digest_count),
        (file.digest_hash, file.digest_count),
        "maintenance trace digest diverged between sim and file backends"
    );
    assert_eq!(sim.per_batch.len(), file.per_batch.len());
    for (i, (s, f)) in sim.per_batch.iter().zip(&file.per_batch).enumerate() {
        assert_eq!(s.0, f.0, "batch {i}: inserted diverged");
        assert_eq!(s.1, f.1, "batch {i}: removed diverged");
        assert_eq!(s.2, f.2, "batch {i}: total I/O diverged");
        assert_eq!(s.3, f.3, "batch {i}: replayed metrics diverged");
    }
    assert_eq!(sim.final_tuples, file.final_tuples);
}
