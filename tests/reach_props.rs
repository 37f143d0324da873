//! Shrinking property suite for the chain-decomposition index.
//!
//! Random DAGs × page-replacement policies × optional transient-fault
//! plans, on the `tc-det` harness (a failure reprints its
//! `TC_DET_SEED=...` and shrinks to a minimal case first). Three layers
//! of invariants:
//!
//! 1. **Decomposition** — the chains partition the condensation's
//!    nodes, every chain is a path of the condensation (consecutive
//!    elements are arcs), and the chain count k never exceeds the node
//!    count (path ⇒ k = 1; antichain ⇒ k = n).
//! 2. **Labels** — sound *and* complete against the `dfs_closure`
//!    reachability oracle: `reach_mem(u, v)` iff `v ∈ closure(u)`, for
//!    all pairs.
//! 3. **Engine** — a full `REACHINDEX` run under an arbitrary policy
//!    (and optionally a fault plan) still produces exactly the
//!    `ptc_answer` oracle's tuples, and `metrics ≡ replay(trace)`.

use std::sync::Arc;
use tc_study::buffer::PagePolicy;
use tc_study::core::prelude::*;
use tc_study::det::check::{self, Checker};
use tc_study::det::{require, require_eq, Rng};
use tc_study::graph::scc::condensation;
use tc_study::graph::{closure, Graph};
use tc_study::reach::{ChainDecomposition, NullMeter, ReachIndex};
use tc_study::trace::{replay, Tracer, VecSink};

mod common;
use common::dag_of;

/// Raw generated input: node count plus unconstrained arc pairs (kept
/// raw so shrinking can drop arcs directly), a source set, a policy
/// index, and an optional fault seed.
type RawCase = ((usize, Vec<(u32, u32)>), Vec<u32>, usize, Option<u64>);

/// Keeps the raw pairs as-is (self-loops dropped) — may be cyclic,
/// which is exactly what the condensation layer is for.
fn any_graph_of(&(n, ref pairs): &(usize, Vec<(u32, u32)>)) -> Graph {
    Graph::from_arcs(
        n,
        pairs.iter().filter(|&&(a, b)| a != b).map(|&(a, b)| (a, b)),
    )
}

fn generate(rng: &mut Rng) -> RawCase {
    let n = rng.random_range(2..40usize);
    let pairs = check::vec_of(rng, 0..120, |r| {
        (r.random_range(0..n as u32), r.random_range(0..n as u32))
    });
    let sources = check::vec_of(rng, 1..4, |r| r.random_range(0..n as u32));
    let policy = rng.random_range(0..PagePolicy::ALL.len());
    let fault = rng
        .random_range(0..3u32)
        .eq(&0)
        .then(|| rng.random_range(0..1_000_000));
    ((n, pairs), sources, policy, fault)
}

fn shrink(case: &RawCase) -> Vec<RawCase> {
    let ((n, pairs), sources, policy, fault) = case;
    let mut out: Vec<RawCase> = check::shrink_vec(pairs)
        .into_iter()
        .map(|p| ((*n, p), sources.clone(), *policy, *fault))
        .collect();
    if fault.is_some() {
        out.push(((*n, pairs.clone()), sources.clone(), *policy, None));
    }
    out
}

#[test]
fn chains_partition_the_condensation_into_paths() {
    Checker::new("chains_partition_the_condensation_into_paths")
        .cases(64)
        .run(generate, shrink, |case| {
            let (raw, _, _, _) = case;
            // Possibly-cyclic input: the decomposition target is the
            // condensation, as in the index builder.
            let g = any_graph_of(raw);
            let cond = condensation(&g);
            let dag = &cond.graph;
            let Some(cd) = ChainDecomposition::of(dag, &Tracer::disabled(), &mut NullMeter) else {
                return Err("a condensation was refused as cyclic".into());
            };

            require_eq!(cd.node_count(), dag.n(), "chains must cover every node");
            require!(
                cd.width() >= usize::from(dag.n() > 0) && cd.width() <= dag.n(),
                "k = {} out of range for n = {}",
                cd.width(),
                dag.n()
            );
            let mut seen = vec![false; dag.n()];
            for (c, chain) in cd.chains.iter().enumerate() {
                require!(!chain.is_empty(), "chain {c} is empty");
                for w in chain.windows(2) {
                    require!(
                        dag.has_arc(w[0], w[1]),
                        "chain {c}: ({}, {}) is not a condensation arc",
                        w[0],
                        w[1]
                    );
                }
                for (i, &v) in chain.iter().enumerate() {
                    require!(!seen[v as usize], "node {v} appears on two chains");
                    seen[v as usize] = true;
                    require_eq!(cd.chain_of[v as usize], c as u32, "chain_of[{v}]");
                    require_eq!(cd.pos_of[v as usize], i as u32, "pos_of[{v}]");
                }
            }
            require!(seen.iter().all(|&b| b), "some node is on no chain");
            Ok(())
        });
}

#[test]
fn labels_are_sound_and_complete_against_the_oracle() {
    Checker::new("labels_are_sound_and_complete")
        .cases(64)
        .run(generate, shrink, |case| {
            let (raw, _, _, _) = case;
            let g = dag_of(raw);
            let mut disk = tc_study::storage::DiskSim::new();
            let idx = ReachIndex::build(&mut disk, &g, &Tracer::disabled(), &mut NullMeter)
                .map_err(|e| format!("build failed: {e}"))?;
            let tc = closure::dfs_closure(&g);
            for u in 0..g.n() as u32 {
                for v in 0..g.n() as u32 {
                    require_eq!(
                        idx.reach_mem(u, v),
                        tc.get(u, v),
                        "reach({u}, {v}) disagrees with dfs_closure"
                    );
                }
            }
            Ok(())
        });
}

#[test]
fn engine_runs_match_the_oracle_under_policies_and_faults() {
    Checker::new("reach_engine_matches_oracle")
        .cases(24)
        .run(generate, shrink, |case| {
            let (raw, sources, policy, fault) = case;
            let g = dag_of(raw);
            let sources: Vec<u32> = sources.clone();
            let expect = closure::ptc_answer(&g, &sources);
            let mut db = Database::build(&g, true).map_err(|e| format!("build: {e}"))?;
            let sink = Arc::new(VecSink::unbounded());
            let mut cfg = SystemConfig::with_buffer(8)
                .collecting()
                .traced(Tracer::new(sink.clone()));
            cfg.page_policy = PagePolicy::ALL[*policy];
            if let Some(seed) = fault {
                cfg.fault = Some(
                    FaultConfig::new(*seed)
                        .transient_reads(0.05)
                        .transient_writes(0.05),
                );
            }
            // A fault plan may exhaust the retry budget; an erroring run
            // produces no answer, so there is nothing to check.
            let Ok(res) = db.run(&Query::partial(sources), Algorithm::ReachIndex, &cfg) else {
                return Ok(());
            };
            require_eq!(
                res.answer.as_deref().unwrap_or(&[]),
                &expect[..],
                "answer != ptc_answer under {} (fault: {:?})",
                PagePolicy::ALL[*policy].name(),
                fault
            );
            let replayed = replay(sink.events()).map_err(|e| format!("replay failed: {e:?}"))?;
            let expected = res.metrics.counts;
            require!(
                replayed == expected,
                "replay(trace) != metrics; field diff:\n{}",
                expected.diff(&replayed).join("\n")
            );
            Ok(())
        });
}
