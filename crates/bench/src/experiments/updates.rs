//! Dynamic updates — incremental maintenance vs. from-scratch recompute.
//!
//! The paper's algorithms all rebuild the closure from nothing; the
//! dynamic layer (`tc_core::dynamic`) maintains a materialized closure
//! under arc insertions and deletions instead. This section streams
//! seeded update batches (insert-only, delete-heavy and mixed churn)
//! against a sparse and a mid-density shallow family and, after every batch,
//! compares the page I/O of the incremental maintenance run with a full
//! Seminaive recompute of the mutated graph — the crossover that decides
//! when materializing-and-maintaining beats rerunning the batch
//! algorithms.

use crate::corpus::family;
use crate::experiments::{ExpResult, Grid, PointId};
use crate::opts::ExpOpts;
use crate::table::Table;
use tc_core::prelude::*;
use tc_graph::StreamKind;

/// Batches per stream.
const BATCHES: usize = 3;
/// Operations per batch.
const BATCH_SIZE: usize = 10;

/// Streams three churn profiles against G3 and G6 and tabulates the
/// incremental-vs-scratch crossover.
pub fn run(opts: &ExpOpts) -> ExpResult<String> {
    let cfg = SystemConfig::with_buffer(20);
    let graphs = ["G3", "G6"];

    let mut g = Grid::new(opts);
    let points: Vec<Vec<(StreamKind, PointId)>> = graphs
        .iter()
        .map(|name| {
            let fam = family(name);
            StreamKind::ALL
                .iter()
                .map(|&kind| (kind, g.updates(fam, kind, BATCHES, BATCH_SIZE, &cfg)))
                .collect()
        })
        .collect();
    let r = g.run()?;

    let mut per_batch = Table::new([
        "graph",
        "stream",
        "batch",
        "ops",
        "+tc",
        "-tc",
        "incr I/O",
        "scratch I/O",
    ]);
    let mut summary = Table::new([
        "graph",
        "stream",
        "final |TC|",
        "cum incr I/O",
        "cum scratch I/O",
        "winner",
    ]);
    for (name, per_kind) in graphs.iter().zip(&points) {
        for &(kind, p) in per_kind {
            let s = r.updates(p);
            for (b, pt) in s.per_batch.iter().enumerate() {
                per_batch.row([
                    name.to_string(),
                    kind.name().to_string(),
                    (b + 1).to_string(),
                    pt.ops.to_string(),
                    pt.inserted.to_string(),
                    pt.removed.to_string(),
                    pt.incremental_io.to_string(),
                    pt.scratch_io.to_string(),
                ]);
            }
            let (ci, cs) = (s.total_incremental_io(), s.total_scratch_io());
            summary.row([
                name.to_string(),
                kind.name().to_string(),
                s.final_tuples.to_string(),
                ci.to_string(),
                cs.to_string(),
                if ci <= cs { "incremental" } else { "scratch" }.to_string(),
            ]);
        }
    }
    Ok(format!(
        "## Dynamic updates — incremental maintenance vs. from-scratch recompute\n\n\
         Expectation: small batches of localized churn are far cheaper to absorb\n\
         incrementally (one reverse-topological sweep rebuilds only the rows the\n\
         batch can change, each from its children's rows) than by rerunning a full\n\
         closure; deletion-heavy churn costs what insert-only churn costs, since a\n\
         row that may lose successors goes through the same sweep. Streams are\n\
         seeded per cell, so this table is byte-identical at any `--jobs` and on\n\
         both storage backends.\n\n\
         Per batch ({BATCH_SIZE} ops, {BATCHES} batches per stream):\n\n{}\n\
         Stream totals:\n\n{}",
        per_batch.render(),
        summary.render()
    ))
}
