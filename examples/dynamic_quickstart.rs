//! Dynamic maintenance end to end: materialize a closure, stream arc
//! insertions and deletions through it, and compare the cumulative cost
//! against recomputing from scratch after every batch.
//!
//! ```text
//! cargo run --release --example dynamic_quickstart
//! ```

use tc_study::core::prelude::*;
use tc_study::graph::{DagGenerator, StreamKind, UpdateStream};

fn main() {
    // A small instance of the paper's G5 parameterization (seeded, so
    // this example prints the same numbers on every machine).
    let graph = DagGenerator::new(500, 4.0, 100).seed(7).generate();
    let cfg = SystemConfig::with_buffer(20);

    // 1. Materialize: DynamicClosure owns the clustered base relation,
    //    its index, and a full-closure file on the simulated disk.
    let mut dyn_tc = DynamicClosure::build(&graph, &cfg).expect("materialize closure");
    println!(
        "materialized {} closure tuples on {} pages",
        dyn_tc.tuple_count(),
        dyn_tc.closure_pages(),
    );

    // 2. Stream: a seeded mixed-churn workload — inserts are sampled
    //    topological-order-windowed (never creating a cycle), deletes
    //    from the live arc set. Same generator the `updates` experiment
    //    section and `tcq update` use.
    let stream = UpdateStream::generate(&graph, StreamKind::Mixed, 4, 8, 100, 42);

    // 3. Maintain: each apply is one traced, metered run — the rows
    //    that reach a changed arc are rebuilt, children first, as the
    //    union of their children's rows. For comparison, recompute
    //    the closure from scratch on the mutated graph each time.
    let mut live = graph.clone();
    let (mut incr_io, mut scratch_io) = (0u64, 0u64);
    for (i, batch) in stream.batches().iter().enumerate() {
        for op in batch {
            match *op {
                tc_study::graph::UpdateOp::Insert(u, v) => live.add_arc(u, v),
                tc_study::graph::UpdateOp::Delete(u, v) => live.remove_arc(u, v),
            };
        }
        let res = dyn_tc.apply(batch).expect("apply batch");
        incr_io += res.metrics.total_io();

        let mut db = Database::build_for(&live, false, &cfg).expect("scratch load");
        let scratch = db
            .run(&Query::full(), Algorithm::Seminaive, &cfg)
            .expect("scratch recompute");
        scratch_io += scratch.metrics.total_io();

        println!(
            "batch {}: {} ops, +{} -{} tuples | incremental {} I/O vs scratch {} I/O",
            i + 1,
            batch.len(),
            res.inserted,
            res.removed,
            res.metrics.total_io(),
            scratch.metrics.total_io(),
        );
    }

    // 4. The crossover: maintenance touches only pages near the delta,
    //    recomputation pays the whole closure every time.
    println!(
        "stream done: closure now {} tuples; cumulative I/O {} incremental vs {} from scratch ({}x)",
        dyn_tc.tuple_count(),
        incr_io,
        scratch_io,
        scratch_io / incr_io.max(1),
    );
}
