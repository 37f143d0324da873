//! Reachability index end to end: decompose a DAG into concurrent
//! chains, persist the interval labels, answer point probes, then run
//! the same index as the engine's ninth algorithm (`REACHINDEX`) and
//! compare its I/O against BJ on the same workload.
//!
//! ```text
//! cargo run --release --example reach_quickstart
//! ```

use tc_study::core::prelude::*;
use tc_study::graph::DagGenerator;
use tc_study::reach::{NullMeter, ReachIndex};
use tc_study::storage::DiskSim;
use tc_study::trace::Tracer;

fn main() {
    // A small instance of the paper's G5 parameterization (seeded, so
    // this example prints the same numbers on every machine).
    let graph = DagGenerator::new(500, 4.0, 100).seed(7).generate();

    // 1. Build: condense the graph, partition the condensation DAG into
    //    k concurrent chains (greedy path cover in topological order),
    //    compute the k-entry interval-label row of every vertex, and
    //    persist chains + labels (chain-major: one column per chain)
    //    through the paged store.
    let mut disk = DiskSim::new();
    let idx = ReachIndex::build(&mut disk, &graph, &Tracer::disabled(), &mut NullMeter)
        .expect("build index");
    println!(
        "index: {} components on k = {} chains, {} label entries",
        idx.condensation().component_count(),
        idx.width(),
        idx.label_entries(),
    );

    // 2. Probe: reach(u, v) is one label lookup — v is reachable from u
    //    iff u's label on v's chain is at or before v's position.
    let (u, v) = (11, 477);
    println!("reach({u}, {v}) = {}", idx.reach_mem(u, v));
    // An entry equal to the longest chain's length means "reaches
    // nothing on that chain".
    let none = idx.decomposition().longest();
    let row_finite = idx
        .labels()
        .row(idx.component(u))
        .iter()
        .filter(|&&p| p != none)
        .count();
    println!("source {u} sees {row_finite} of {} chains", idx.width());

    // 3. Engine: the same index as the ninth algorithm, through the
    //    standard two-phase run — restructuring builds and persists the
    //    index, computation reads each label column once over the
    //    sources and scans the chain suffixes each source's labels
    //    point at. Compare against BJ, the paper's all-round winner.
    let cfg = SystemConfig::with_buffer(20);
    let query = Query::partial(vec![11, 203, 477]);
    let mut db = Database::build(&graph, true).expect("load database");
    for algo in [Algorithm::ReachIndex, Algorithm::Bj] {
        let res = db.run(&query, algo, &cfg).expect("run");
        println!(
            "{:<10} restructure {:>6} I/O, compute {:>6} I/O, {} answer tuples",
            algo.name(),
            res.metrics.restructure_io.total(),
            res.metrics.compute_io.total(),
            res.metrics.answer_tuples,
        );
    }
}
