//! Property test: incremental maintenance ≡ from-scratch recompute on
//! random graphs × random update streams.
//!
//! For `tc-det`-generated small DAGs and raw op lists (applied one op
//! per batch, so the shrinker minimizes to the shortest failing update
//! prefix), across every page-replacement policy and with optional
//! transient-fault plans, the maintained closure must equal the
//! in-memory oracle after every apply, every apply's metrics must
//! satisfy `metrics ≡ replay(trace)`, and the final state must match a
//! from-scratch rebuild read back through the disk. Replay a failure
//! with the printed `TC_DET_SEED=...`.

use std::sync::Arc;
use tc_study::buffer::PagePolicy;
use tc_study::core::prelude::*;
use tc_study::det::check::{self, Checker};
use tc_study::det::{require, require_eq, Rng};
use tc_study::graph::{closure, Graph, NodeId, UpdateOp};
use tc_study::trace::{replay, Tracer, VecSink};

mod common;
use common::{dag_of, orient};

/// Raw generated input: node count plus unconstrained base-arc pairs,
/// raw update triples `(is_insert, a, b)`, a policy index, and an
/// optional fault seed. Kept raw so shrinking can drop ops directly.
type RawCase = (
    (usize, Vec<(u32, u32)>),
    Vec<(bool, u32, u32)>,
    usize,
    Option<u64>,
);

/// Maps a raw triple to an op: both kinds oriented ascending, so
/// inserts can never close a cycle and deletes hit oriented arcs.
fn op_of(n: usize, &(ins, a, b): &(bool, u32, u32)) -> Option<UpdateOp> {
    let (a, b) = orient(a % n as u32, b % n as u32)?;
    Some(if ins {
        UpdateOp::Insert(a, b)
    } else {
        UpdateOp::Delete(a, b)
    })
}

fn generate(rng: &mut Rng) -> RawCase {
    let n = rng.random_range(2..24usize);
    let pairs = check::vec_of(rng, 0..60, |r| {
        (r.random_range(0..n as u32), r.random_range(0..n as u32))
    });
    let ops = check::vec_of(rng, 1..16, |r| {
        (
            r.random_bool(0.5),
            r.random_range(0..n as u32),
            r.random_range(0..n as u32),
        )
    });
    let policy = rng.random_range(0..PagePolicy::ALL.len());
    let fault = rng
        .random_range(0..3u32)
        .eq(&0)
        .then(|| rng.random_range(0..1_000_000));
    ((n, pairs), ops, policy, fault)
}

fn shrink(case: &RawCase) -> Vec<RawCase> {
    let ((n, pairs), ops, policy, fault) = case;
    let mut out: Vec<RawCase> = check::shrink_vec(ops)
        .into_iter()
        .map(|o| ((*n, pairs.clone()), o, *policy, *fault))
        .collect();
    out.extend(
        check::shrink_vec(pairs)
            .into_iter()
            .map(|p| ((*n, p), ops.clone(), *policy, *fault)),
    );
    if fault.is_some() {
        out.push(((*n, pairs.clone()), ops.clone(), *policy, None));
    }
    out
}

fn oracle(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
    closure::ptc_answer(g, &all)
}

#[test]
fn incremental_matches_scratch_on_random_streams() {
    Checker::new("dynamic_incremental_eq_scratch")
        .cases(24)
        .run(generate, shrink, |case| {
            let (raw, raw_ops, policy, fault) = case;
            let g = dag_of(raw);
            let sink = Arc::new(VecSink::unbounded());
            let mut cfg = SystemConfig::with_buffer(6).traced(Tracer::new(sink.clone()));
            cfg.page_policy = PagePolicy::ALL[*policy];
            if let Some(seed) = fault {
                cfg.fault = Some(
                    FaultConfig::new(*seed)
                        .transient_reads(0.05)
                        .transient_writes(0.05),
                );
            }
            let mut dyn_tc = match DynamicClosure::build(&g, &cfg) {
                Ok(d) => d,
                // A fault plan can exhaust the retry budget during the
                // initial materialization; nothing to check then.
                Err(_) => return Ok(()),
            };
            let mut live = g.clone();
            let mut seen = 0usize;
            for raw_op in raw_ops {
                let Some(op) = op_of(live.n(), raw_op) else {
                    continue;
                };
                match op {
                    UpdateOp::Insert(u, v) => live.add_arc(u, v),
                    UpdateOp::Delete(u, v) => live.remove_arc(u, v),
                };
                // One op per batch: a failing case shrinks to the
                // shortest failing update prefix.
                let Ok(res) = dyn_tc.apply(&[op]) else {
                    // An erroring apply leaves the instance untrusted
                    // (like a crash); the case ends here.
                    return Ok(());
                };
                let events = sink.events();
                let replayed = match replay(events[seen..].iter().cloned()) {
                    Ok(r) => r,
                    Err(e) => return Err(format!("replay failed after {op:?}: {e:?}")),
                };
                seen = events.len();
                let expected = res.metrics.counts;
                require!(
                    replayed == expected,
                    "replay(trace) != metrics after {:?}; field diff:\n{}",
                    op,
                    expected.diff(&replayed).join("\n")
                );
                let tuples = match dyn_tc.tuples() {
                    Ok(t) => t,
                    Err(_) => return Ok(()), // fault during the readback scan
                };
                require!(
                    tuples == oracle(&live),
                    "maintained closure diverged from the oracle after {:?}",
                    op
                );
            }
            // Final state also matches a from-scratch rebuild through
            // the disk roundtrip (fault-free config for the rebuild).
            let scratch_cfg = SystemConfig::with_buffer(6);
            let mut scratch = DynamicClosure::build(&live, &scratch_cfg)
                .map_err(|e| format!("scratch build failed: {e}"))?;
            let (a, b) = (dyn_tc.tuples(), scratch.tuples());
            if let (Ok(a), Ok(b)) = (a, b) {
                require_eq!(a, b, "incremental != from-scratch rebuild at stream end");
            }
            Ok(())
        });
}

/// Applies `batch` as one `apply` to a fresh closure of `g` and checks
/// the maintained tuples and the reported net delta against the oracle.
fn check_batch(g: &Graph, batch: &[UpdateOp]) -> Result<(), String> {
    let mut dyn_tc = DynamicClosure::build(g, &SystemConfig::with_buffer(6))
        .map_err(|e| format!("build failed: {e}"))?;
    let mut live = g.clone();
    for op in batch {
        match *op {
            UpdateOp::Insert(u, v) => live.add_arc(u, v),
            UpdateOp::Delete(u, v) => live.remove_arc(u, v),
        };
    }
    let (before, after) = (oracle(g), oracle(&live));
    let res = dyn_tc
        .apply(batch)
        .map_err(|e| format!("apply failed: {e}"))?;
    let tuples = dyn_tc.tuples().map_err(|e| format!("scan failed: {e}"))?;
    require!(
        tuples == after,
        "maintained closure diverged from the oracle after batch {:?}",
        batch
    );
    let gone = before.iter().filter(|t| !after.contains(t)).count() as u64;
    let new = after.iter().filter(|t| !before.contains(t)).count() as u64;
    require_eq!(
        (res.inserted, res.removed),
        (new, gone),
        "batch {:?}",
        batch
    );
    Ok(())
}

#[test]
fn an_arc_inserted_and_deleted_in_one_batch_derives_nothing() {
    use UpdateOp::{Delete, Insert};
    // 0 -> 1, and 2 isolated: (1, 2) comes and goes inside the batch, so
    // neither (1, 2) nor (0, 2) may appear. The defect PR 11 reported:
    // the arc was recorded as inserted *and* deleted, and the insert
    // phase propagated from it.
    let g = Graph::from_arcs(3, [(0, 1)]);
    for batch in [
        vec![Insert(1, 2), Delete(1, 2)],
        // With other work around it, and coming back a second time.
        vec![Insert(1, 2), Delete(0, 1), Delete(1, 2), Insert(0, 2)],
        vec![Insert(1, 2), Delete(1, 2), Insert(1, 2)],
    ] {
        assert_eq!(check_batch(&g, &batch), Ok(()));
    }
}

/// `tcq update --trace` writes one stream with a `RunBegin` per batch.
/// Replaying it whole must give the sum of the batches: each `RunBegin`
/// returns the fold to the restructuring phase, `buffer_compute` counts
/// every run's computation phase, and the once-per-run `TupleWrites`
/// totals add up. (Before the folds were merged, `replay` stayed in the
/// first run's computation phase and kept the last `TupleWrites` only,
/// while `tcq analyze` did neither.)
#[test]
fn a_stream_of_two_batches_replays_to_the_sum_of_its_batches() {
    use UpdateOp::{Delete, Insert};
    let g = Graph::from_arcs(40, (0..39).map(|i| (i, i + 1)));
    let sink = Arc::new(VecSink::unbounded());
    let cfg = SystemConfig::with_buffer(4).traced(Tracer::new(sink.clone()));
    let mut dyn_tc = DynamicClosure::build(&g, &cfg).expect("build");
    let a = dyn_tc.apply(&[Delete(19, 20)]).expect("first batch");
    let b = dyn_tc
        .apply(&[Insert(19, 20), Delete(5, 6)])
        .expect("second batch");
    let (a, b) = (a.metrics.counts, b.metrics.counts);
    assert!(
        b.restructure_io.total() > 0 && b.tuple_writes > 0,
        "the second batch must restructure and write, or the sums below check nothing"
    );
    let whole = replay(sink.events()).expect("replay");
    assert_eq!(
        whole.restructure_io,
        a.restructure_io.plus(&b.restructure_io)
    );
    assert_eq!(whole.compute_io, a.compute_io.plus(&b.compute_io));
    assert_eq!(
        whole.buffer_compute,
        a.buffer_compute.plus(&b.buffer_compute)
    );
    assert_eq!(whole.buffer, a.buffer.plus(&b.buffer));
    assert_eq!(whole.tuple_writes, a.tuple_writes + b.tuple_writes);
}

#[test]
fn an_arc_deleted_and_reinserted_in_one_batch_changes_nothing() {
    use UpdateOp::{Delete, Insert};
    let g = Graph::from_arcs(4, [(0, 1), (1, 2), (2, 3)]);
    for batch in [
        vec![Delete(1, 2), Insert(1, 2)],
        vec![Delete(1, 2), Insert(0, 3), Insert(1, 2), Delete(2, 3)],
    ] {
        assert_eq!(check_batch(&g, &batch), Ok(()));
    }
}

#[test]
fn whole_batches_on_tiny_graphs_match_the_oracle() {
    // Few nodes and many ops per batch, so one batch touches the same
    // arc repeatedly (the one-op-per-batch property above never does).
    Checker::new("dynamic_batched_eq_oracle").cases(48).run(
        |rng: &mut Rng| {
            let n = rng.random_range(2..7usize);
            let pairs = check::vec_of(rng, 0..12, |r| {
                (r.random_range(0..n as u32), r.random_range(0..n as u32))
            });
            let ops = check::vec_of(rng, 2..24, |r| {
                (
                    r.random_bool(0.5),
                    r.random_range(0..n as u32),
                    r.random_range(0..n as u32),
                )
            });
            ((n, pairs), ops)
        },
        |((n, pairs), ops)| {
            let mut out: Vec<_> = check::shrink_vec(ops)
                .into_iter()
                .map(|o| ((*n, pairs.clone()), o))
                .collect();
            out.extend(
                check::shrink_vec(pairs)
                    .into_iter()
                    .map(|p| ((*n, p), ops.clone())),
            );
            out
        },
        |(raw, raw_ops)| {
            let g = dag_of(raw);
            let batch: Vec<UpdateOp> = raw_ops.iter().filter_map(|o| op_of(g.n(), o)).collect();
            check_batch(&g, &batch)
        },
    );
}

/// Raw input of the permuted-label property: the raw DAG and op triples
/// of [`RawCase`], ops per batch, a policy index, and the seed of the
/// node relabelling.
type PermutedCase = (
    (usize, Vec<(u32, u32)>),
    Vec<(bool, u32, u32)>,
    usize,
    usize,
    u64,
);

/// Everything above orients arcs ascending, so there *descending node
/// id* is a reverse topological order and maintenance that swept in id
/// order would pass. Here the DAG and the ops are relabelled through a
/// seeded permutation, which leaves no relation between ids and the
/// order, and inserts keep the direction they were drawn with, so a
/// batch can close a cycle: after every batch the closure is the
/// oracle's, or the batch is refused as `ClosesCycle` with graph and
/// closure as they were.
#[test]
fn permuted_labels_match_the_oracle_or_refuse_the_cycle() {
    Checker::new("dynamic_permuted_labels_eq_oracle")
        .cases(48)
        .run(
            |rng: &mut Rng| -> PermutedCase {
                let (raw, ops, policy, _) = generate(rng);
                (
                    raw,
                    ops,
                    rng.random_range(1..5usize),
                    policy,
                    rng.next_u64(),
                )
            },
            |(raw, ops, per_batch, policy, seed)| {
                let mut out: Vec<PermutedCase> = check::shrink_vec(ops)
                    .into_iter()
                    .map(|o| (raw.clone(), o, *per_batch, *policy, *seed))
                    .collect();
                out.extend(
                    check::shrink_vec(&raw.1)
                        .into_iter()
                        .map(|p| ((raw.0, p), ops.clone(), *per_batch, *policy, *seed)),
                );
                if *per_batch > 1 {
                    out.push((raw.clone(), ops.clone(), 1, *policy, *seed));
                }
                out
            },
            |((n, pairs), raw_ops, per_batch, policy, seed)| {
                let n = *n as u32;
                let mut label: Vec<u32> = (0..n).collect();
                Rng::from_seed(*seed).shuffle(&mut label);
                let relabel = |(a, b): (u32, u32)| (label[a as usize], label[b as usize]);
                let oriented = pairs.iter().filter_map(|&(a, b)| orient(a, b));
                let g = Graph::from_arcs(n as usize, oriented.map(relabel));
                let ops: Vec<UpdateOp> = raw_ops
                    .iter()
                    .filter_map(|&(ins, a, b)| {
                        let (a, b) = (a % n, b % n);
                        if ins {
                            let (u, v) = relabel((a, b));
                            return Some(UpdateOp::Insert(u, v));
                        }
                        // Deletes stay aimed at arcs the DAG can have.
                        let (u, v) = relabel(orient(a, b)?);
                        Some(UpdateOp::Delete(u, v))
                    })
                    .collect();

                let sink = Arc::new(VecSink::unbounded());
                let mut cfg = SystemConfig::with_buffer(6).traced(Tracer::new(sink.clone()));
                cfg.page_policy = PagePolicy::ALL[*policy];
                let mut dyn_tc =
                    DynamicClosure::build(&g, &cfg).map_err(|e| format!("build failed: {e}"))?;
                let mut live = g.clone();
                let mut seen = 0usize;
                for batch in ops.chunks(*per_batch) {
                    let mut next = live.clone();
                    for op in batch {
                        match *op {
                            UpdateOp::Insert(u, v) => next.add_arc(u, v),
                            UpdateOp::Delete(u, v) => next.remove_arc(u, v),
                        };
                    }
                    let applied = dyn_tc.apply(batch);
                    let events = sink.events();
                    match applied {
                        Ok(res) => {
                            require!(next.is_acyclic(), "cyclic batch {:?} applied", batch);
                            live = next;
                            let replayed = replay(events[seen..].iter().cloned())
                                .map_err(|e| format!("replay failed after {batch:?}: {e:?}"))?;
                            let expected = res.metrics.counts;
                            require!(
                                replayed == expected,
                                "replay(trace) != metrics after {:?}; field diff:\n{}",
                                batch,
                                expected.diff(&replayed).join("\n")
                            );
                        }
                        Err(UpdateError::ClosesCycle { .. }) => {
                            require!(!next.is_acyclic(), "acyclic batch {:?} refused", batch);
                            require_eq!(
                                dyn_tc.graph(),
                                &live,
                                "refused {:?} changed the graph",
                                batch
                            );
                        }
                        Err(e) => return Err(format!("apply of {batch:?} failed: {e}")),
                    }
                    seen = events.len();
                    let tuples = dyn_tc.tuples().map_err(|e| format!("scan failed: {e}"))?;
                    require!(
                        tuples == oracle(&live),
                        "maintained closure diverged from the oracle after {:?}",
                        batch
                    );
                }
                Ok(())
            },
        );
}

/// The arcs a build case has besides its drawn ones, between positions
/// of a hidden topological order.
#[derive(Clone, Copy, Debug)]
enum Spine {
    /// None: a sparse draw leaves nodes isolated.
    None,
    /// One chain through every position, as long as the graph.
    Chain,
    /// Position 0 points at every other position.
    Star,
}

/// Raw input of the build property: node count, spine, pairs drawn
/// between positions, and the seed of the relabelling.
type BuildCase = (usize, Spine, Vec<(u32, u32)>, u64);

/// Node counts on and around the word boundaries of a closure row.
const WIDTHS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];

fn build_case(rng: &mut Rng) -> BuildCase {
    let n = match rng.random_range(0..12usize) {
        k @ 0..=7 => WIDTHS[k],
        _ => rng.random_range(2..301usize),
    };
    let spine = [Spine::None, Spine::Chain, Spine::Star][rng.random_range(0..3usize)];
    let pairs = check::vec_of(rng, 0..2 * n + 1, |r| {
        (r.random_range(0..n as u32), r.random_range(0..n as u32))
    });
    (n, spine, pairs, rng.next_u64())
}

/// The case's DAG: spine and drawn pairs point from the lower position
/// to the higher, then every node is renamed through a seeded
/// permutation, so id order is not a topological order.
fn shaped_dag(&(n, spine, ref pairs, seed): &BuildCase) -> Graph {
    let n32 = n as u32;
    let spine: Vec<(u32, u32)> = match spine {
        Spine::None => Vec::new(),
        Spine::Chain => (1..n32).map(|v| (v - 1, v)).collect(),
        Spine::Star => (1..n32).map(|v| (0, v)).collect(),
    };
    let mut label: Vec<NodeId> = (0..n32).collect();
    Rng::from_seed(seed).shuffle(&mut label);
    let arcs = spine
        .into_iter()
        .chain(pairs.iter().filter_map(|&(a, b)| orient(a, b)));
    Graph::from_arcs(n, arcs.map(|(a, b)| (label[a as usize], label[b as usize])))
}

/// The closure a build materializes is the per-source DFS oracle's, read
/// back from the file and served from a frozen snapshot, at node counts
/// on the word boundary and with ids that are not a topological order.
#[test]
fn build_materializes_the_oracle_closure() {
    Checker::new("build_materializes_the_oracle_closure")
        .cases(64)
        .run(
            build_case,
            |(n, spine, pairs, seed)| {
                let mut out: Vec<BuildCase> = check::shrink_vec(pairs)
                    .into_iter()
                    .map(|p| (*n, *spine, p, *seed))
                    .collect();
                if !matches!(spine, Spine::None) {
                    out.push((*n, Spine::None, pairs.clone(), *seed));
                }
                out
            },
            |case| {
                let g = shaped_dag(case);
                let want = oracle(&g);
                let cfg = SystemConfig::with_buffer(6);
                let mut dyn_tc =
                    DynamicClosure::build(&g, &cfg).map_err(|e| format!("build failed: {e}"))?;
                require_eq!(dyn_tc.tuple_count(), want.len(), "tuple_count");
                let got = dyn_tc.tuples().map_err(|e| format!("scan failed: {e}"))?;
                if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i))
                {
                    return Err(format!(
                        "tuple {i}: built {:?}, oracle {:?}",
                        got.get(i),
                        want.get(i)
                    ));
                }
                let snap =
                    ClosedSnapshot::build(&g, &cfg).map_err(|e| format!("freeze failed: {e}"))?;
                let mut store = snap.open_store();
                for u in 0..g.n() as NodeId {
                    let row = snap
                        .ptc(&mut store, u)
                        .map_err(|e| format!("ptc({u}) failed: {e}"))?;
                    require_eq!(row, closure::successors_of(&g, u), "ptc({u})");
                }
                Ok(())
            },
        );
}
