//! Work-bound oracle for dynamic maintenance: a batch does union work
//! only where something changed.
//!
//! A closure row is a function of the row's own arcs and its children's
//! rows. So the only rows a batch may re-derive are those that own a
//! net changed arc or have a child whose row changed, and re-deriving a
//! row is at most one union per post-update child. On random DAGs ×
//! mixed batches the maintained closure must equal the oracle after
//! every batch, and a batch's `unions` must stay within the sum of
//! post-update out-degrees over those rows — both sides read off the
//! `tc_graph::closure` oracle of the graphs before and after the batch,
//! not off the maintenance code. Replay a failure with the printed
//! `TC_DET_SEED=...`.

use tc_study::core::prelude::*;
use tc_study::det::check::{self, Checker};
use tc_study::det::{require, Rng};
use tc_study::graph::{closure, Graph, NodeId, UpdateOp};

mod common;
use common::orient_by;

/// Node count, a permutation of the nodes that fixes which way every
/// arc points, raw base pairs, and raw batches of `(is_insert, a, b)`.
type RawCase = (usize, Vec<u32>, Vec<(u32, u32)>, Vec<Vec<(bool, u32, u32)>>);

fn generate(rng: &mut Rng) -> RawCase {
    let n = rng.random_range(2..28usize);
    let mut rank: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut rank);
    let pairs = check::arc_list(rng, n as u32, 70);
    let batches = check::vec_of(rng, 1..5, |r| {
        check::vec_of(r, 0..12, |r| {
            // Half the ops name a base pair, so most deletes hit.
            let (a, b) = if pairs.is_empty() || r.random_bool(0.5) {
                (r.random_range(0..n as u32), r.random_range(0..n as u32))
            } else {
                pairs[r.random_range(0..pairs.len())]
            };
            (r.random_bool(0.45), a, b)
        })
    });
    (n, rank, pairs, batches)
}

fn shrink(case: &RawCase) -> Vec<RawCase> {
    let (n, rank, pairs, batches) = case;
    let mut out: Vec<RawCase> = check::shrink_vec(batches)
        .into_iter()
        .map(|b| (*n, rank.clone(), pairs.clone(), b))
        .collect();
    for (i, batch) in batches.iter().enumerate() {
        for smaller in check::shrink_vec(batch) {
            let mut b = batches.clone();
            b[i] = smaller;
            out.push((*n, rank.clone(), pairs.clone(), b));
        }
    }
    out.extend(
        check::shrink_vec(pairs)
            .into_iter()
            .map(|p| (*n, rank.clone(), p, batches.clone())),
    );
    out
}

fn oracle(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
    closure::ptc_answer(g, &all)
}

/// The most unions a batch that turned `old` into `new` may do: the
/// post-update out-degree of every row that owns a net changed arc or
/// has a child whose closure row changed.
fn union_bound(old: &Graph, new: &Graph) -> u64 {
    let n = new.n() as NodeId;
    let changed: Vec<bool> = (0..n)
        .map(|z| closure::successors_of(old, z) != closure::successors_of(new, z))
        .collect();
    (0..n)
        .filter(|&x| {
            old.children(x) != new.children(x)
                || new.children(x).iter().any(|&z| changed[z as usize])
        })
        .map(|x| new.out_degree(x) as u64)
        .sum()
}

#[test]
fn unions_stay_within_the_rows_a_batch_changes() {
    Checker::new("unions_stay_within_the_rows_a_batch_changes")
        .cases(64)
        .run(generate, shrink, |(n, rank, pairs, batches)| {
            // Every arc points from the lower to the higher rank: graphs
            // and batches stay acyclic, and node ids are not a
            // topological order.
            let orient = |a, b| orient_by(|v| rank[v as usize], a, b);
            let g = Graph::from_arcs(*n, pairs.iter().filter_map(|&(a, b)| orient(a, b)));
            let mut dyn_tc = DynamicClosure::build(&g, &SystemConfig::with_buffer(6))
                .map_err(|e| format!("build failed: {e}"))?;
            let mut live = g;
            for raw in batches {
                let batch: Vec<UpdateOp> = raw
                    .iter()
                    .filter_map(|&(ins, a, b)| {
                        let (u, v) = orient(a, b)?;
                        Some(if ins {
                            UpdateOp::Insert(u, v)
                        } else {
                            UpdateOp::Delete(u, v)
                        })
                    })
                    .collect();
                let old = live.clone();
                for op in &batch {
                    match *op {
                        UpdateOp::Insert(u, v) => live.add_arc(u, v),
                        UpdateOp::Delete(u, v) => live.remove_arc(u, v),
                    };
                }
                let res = dyn_tc
                    .apply(&batch)
                    .map_err(|e| format!("apply {batch:?} failed: {e}"))?;
                let tuples = dyn_tc.tuples().map_err(|e| format!("scan failed: {e}"))?;
                require!(
                    tuples == oracle(&live),
                    "maintained closure diverged from the oracle after {batch:?}"
                );
                let bound = union_bound(&old, &live);
                require!(
                    res.metrics.unions <= bound,
                    "batch {batch:?} did {} unions; the rows it changes have {bound} children",
                    res.metrics.unions
                );
            }
            Ok(())
        });
}

/// A row whose own arcs and children's rows are unchanged is not
/// re-derived. Deleting an arc that a longer path makes redundant
/// changes no closure row, so only its tail is re-derived — one union
/// per remaining child — and none of the tail's ancestors, although
/// every one of them reaches the deleted arc.
#[test]
fn deleting_a_redundant_arc_re_derives_only_its_tail() {
    // 0 -> 1 -> 2 -> 3 -> 4 and 2 -> 5 -> 4: (2, 4) is redundant. 6 and
    // 7 sit above 1, 8 beside 3.
    let g = Graph::from_arcs(
        9,
        [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (2, 5),
            (5, 4),
            (2, 4),
            (6, 1),
            (7, 6),
            (7, 0),
            (8, 3),
        ],
    );
    let mut dyn_tc = DynamicClosure::build(&g, &SystemConfig::with_buffer(6)).expect("build");
    let before = dyn_tc.tuples().expect("scan");
    let res = dyn_tc.apply(&[UpdateOp::Delete(2, 4)]).expect("apply");
    let mut live = g.clone();
    live.remove_arc(2, 4);
    assert_eq!(before, oracle(&live), "the deleted arc was not redundant");
    assert_eq!(dyn_tc.tuples().expect("scan"), before);
    assert_eq!((res.inserted, res.removed), (0, 0));
    assert_eq!(res.metrics.unions, live.out_degree(2) as u64);
}
