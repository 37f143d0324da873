//! End-to-end closure of *cyclic* graphs.
//!
//! The study restricts its measurements to DAGs, justified by the classic
//! observation (§1): "given a cyclic graph, an acyclic condensation graph
//! (in which strongly connected components are merged) can be computed
//! cheaply in comparison to the cost of computing the closure of the
//! condensation graph". This module packages that pipeline:
//!
//! 1. condense the input (in-memory Tarjan — the cheap part);
//! 2. run any of the study's algorithms on the condensation through the
//!    full disk-based engine;
//! 3. expand component-level reachability back to original node pairs,
//!    including the intra-component pairs a cycle implies.
//!
//! Reachability on a cyclic graph is *reflexive inside cycles*: a node on
//! a cycle reaches itself. The expanded answer reflects that.

use crate::config::SystemConfig;
use crate::database::Database;
use crate::metrics::CostMetrics;
use crate::query::Query;
use crate::Algorithm;
use tc_graph::{condensation, Condensation, Graph, NodeId};
use tc_storage::StorageResult;

/// Result of a closure over a cyclic graph.
#[derive(Debug)]
pub struct CyclicResult {
    /// The expanded answer: `(source, reachable)` pairs over the
    /// *original* node ids, sorted. Contains `(s, s)` when `s` lies on a
    /// cycle.
    pub answer: Vec<(NodeId, NodeId)>,
    /// Metrics of the disk-based run on the condensation.
    pub metrics: CostMetrics,
    /// The condensation used (for callers that want the mapping).
    pub condensation: Condensation,
}

/// Condenses `graph`, runs `query` with `algorithm` on the condensation,
/// and expands the answer back to original node pairs.
///
/// The condensation itself is in-memory preprocessing (not charged),
/// matching the paper's framing that it is cheap relative to the closure;
/// all closure work is charged through the engine as usual.
pub fn run_cyclic(
    graph: &Graph,
    query: &Query,
    algorithm: Algorithm,
    cfg: &SystemConfig,
) -> StorageResult<CyclicResult> {
    let cond = condensation(graph);

    // Translate the source set to component ids.
    let cquery = match query.sources() {
        None => Query::full(),
        Some(srcs) => Query::partial(srcs.iter().map(|&s| cond.component[s as usize]).collect()),
    };

    let mut db = Database::build_for(&cond.graph, algorithm.needs_inverse(), cfg)?;
    let mut run_cfg = cfg.clone();
    run_cfg.collect_answer = true;
    run_cfg.validate = false; // component-level oracle differs from graph-level
    let res = db.run(&cquery, algorithm, &run_cfg)?;

    // Expand component-level facts to node pairs. A query source `s` owns
    // the facts of its component.
    let sources: Vec<NodeId> = query.effective_sources(graph.n());
    let mut by_component: Vec<Vec<NodeId>> = vec![Vec::new(); cond.component_count()];
    for &s in &sources {
        by_component[cond.component[s as usize] as usize].push(s);
    }

    let mut answer: Vec<(NodeId, NodeId)> = Vec::new();
    // Intra-component reachability: a source on a cycle reaches every
    // member of its component, itself included.
    for &s in &sources {
        let c = cond.component[s as usize];
        if cond.is_cyclic(c) {
            for &v in &cond.members[c as usize] {
                answer.push((s, v));
            }
        }
    }
    // Inter-component reachability from the engine's answer.
    for &(cs, cx) in res.answer.as_deref().unwrap_or(&[]) {
        for &s in &by_component[cs as usize] {
            for &v in &cond.members[cx as usize] {
                answer.push((s, v));
            }
        }
    }
    answer.sort_unstable();
    answer.dedup();

    Ok(CyclicResult {
        answer,
        metrics: res.metrics,
        condensation: cond,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::{closure, gen};

    /// Oracle including reflexive-on-cycle semantics.
    fn oracle(g: &Graph, sources: &[NodeId]) -> Vec<(NodeId, NodeId)> {
        let tc = closure::dfs_closure(g); // cyclic fallback sets (s, s) on cycles
        let mut out = Vec::new();
        for &s in sources {
            for v in tc.row_ones(s) {
                out.push((s, v));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn matches_oracle_on_cyclic_graphs() {
        let g = gen::cyclic(150, 3.0, 30, 20, 11);
        assert!(!g.is_acyclic());
        let sources = vec![0, 40, 90];
        for algo in [Algorithm::Btc, Algorithm::Jkb2, Algorithm::Srch] {
            let res = run_cyclic(
                &g,
                &Query::partial(sources.clone()),
                algo,
                &SystemConfig::default(),
            )
            .unwrap();
            assert_eq!(res.answer, oracle(&g, &sources), "{algo}");
        }
    }

    #[test]
    fn full_closure_of_cyclic_graph() {
        let g = gen::cyclic(100, 2.0, 25, 15, 3);
        let res = run_cyclic(&g, &Query::full(), Algorithm::Btc, &SystemConfig::default()).unwrap();
        let all: Vec<NodeId> = (0..100).collect();
        assert_eq!(res.answer, oracle(&g, &all));
        assert!(res.condensation.component_count() < 100, "cycles collapsed");
    }

    #[test]
    fn node_on_cycle_reaches_itself() {
        let g = Graph::from_arcs(4, [(0, 1), (1, 0), (1, 2)]);
        let res = run_cyclic(
            &g,
            &Query::partial(vec![0]),
            Algorithm::Btc,
            &SystemConfig::default(),
        )
        .unwrap();
        assert_eq!(res.answer, vec![(0, 0), (0, 1), (0, 2)]);
    }

    #[test]
    fn acyclic_input_degenerates_to_plain_run() {
        let g = tc_graph::DagGenerator::new(120, 3.0, 30).seed(5).generate();
        let sources = vec![2, 60];
        let res = run_cyclic(
            &g,
            &Query::partial(sources.clone()),
            Algorithm::Btc,
            &SystemConfig::default(),
        )
        .unwrap();
        assert_eq!(res.answer, closure::ptc_answer(&g, &sources));
        assert_eq!(res.condensation.component_count(), 120);
    }
}
