//! SRCH — the Search algorithm (paper §3.4).
//!
//! For a high-selectivity query, the restructuring machinery (topological
//! sort, magic-graph-wide list building) may cost more than it saves. The
//! Search algorithm instead treats a k-source query as k single-source
//! searches: starting from each source it walks the relation through the
//! clustered index and unions the *immediate* successor list of every
//! node it reaches into the source's list — it does **not** use the
//! immediate-successor optimization, which is why its union count (and
//! cost) grows rapidly with the number of sources (Figure 10).
//!
//! The work happens in what is normally the preprocessing phase; "the
//! computation phase is no longer needed."

use crate::algorithms::{write_union, AnswerCollector};
use crate::database::Database;
use crate::metrics::CostMetrics;
use tc_buffer::BufferPool;
use tc_graph::NodeId;
use tc_storage::StorageResult;
use tc_succ::{ListPolicy, NodeBitVec, SuccStore};

/// Runs the per-source searches, building each source's expanded list in
/// a fresh store (returned for the final write-out).
///
/// `levels` supplies node levels for the locality metric (pure metric
/// bookkeeping, computed by the engine from the workload description; the
/// algorithm itself never sorts the graph).
pub fn run_search(
    db: &Database,
    pool: &mut BufferPool,
    sources: &[NodeId],
    levels: &[u32],
    list_policy: ListPolicy,
    metrics: &mut CostMetrics,
    answer: &mut AnswerCollector,
) -> StorageResult<SuccStore> {
    let n = db.n();
    let mut store = SuccStore::new(pool, n, list_policy);
    let mut reached = NodeBitVec::new(n);
    let mut visited_any = NodeBitVec::new(n);

    for &s in sources {
        reached.clear_fast();
        // DFS from s; each visited node's immediate successor list is
        // unioned into S_s straight from the relation.
        let mut stack: Vec<NodeId> = vec![s];
        let mut kids: Vec<u32> = Vec::new();
        let mut fresh: Vec<u32> = Vec::new();
        while let Some(y) = stack.pop() {
            visited_any.insert(y);
            metrics.count_union();
            metrics.count_list_fetch();
            kids.clear();
            db.relation.children(pool, y, &mut kids)?;
            metrics.count_arcs_bulk(kids.len() as u64);
            fresh.clear();
            for &c in &kids {
                metrics.count_tuple_read();
                metrics.count_locality(levels[y as usize] as f64 - levels[c as usize] as f64);
                if c != s && reached.insert(c) {
                    fresh.push(c);
                    stack.push(c);
                } else {
                    metrics.count_duplicate();
                }
            }
            write_union(pool, &mut store, s, &fresh, true, metrics, answer)?;
        }
    }
    metrics.set_magic_nodes(visited_any.len() as u64);
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use tc_buffer::PagePolicy;
    use tc_graph::{closure, DagGenerator, Graph, MagicGraph};

    fn run(g: &Graph, sources: &[NodeId]) -> (CostMetrics, Vec<(u32, u32)>, SuccStore, BufferPool) {
        let mut db = Database::build(g, false).unwrap();
        let disk = db.store.take().unwrap();
        let mut pool = BufferPool::with_store(disk, 10, PagePolicy::Lru);
        let mut metrics = CostMetrics::new(Algorithm::Srch);
        let mut answer = AnswerCollector::new(true);
        // Engine-supplied levels (bookkeeping only).
        let magic = MagicGraph::of(g, sources);
        let levels = tc_graph::model::node_levels(&magic.graph);
        let store = run_search(
            &db,
            &mut pool,
            sources,
            &levels,
            tc_succ::ListPolicy::Spill,
            &mut metrics,
            &mut answer,
        )
        .unwrap();
        (metrics, answer.into_pairs(), store, pool)
    }

    #[test]
    fn matches_oracle() {
        let g = DagGenerator::new(300, 3.0, 80).seed(21).generate();
        let sources = vec![4, 77, 150];
        let (_, pairs, _, _) = run(&g, &sources);
        assert_eq!(pairs, closure::ptc_answer(&g, &sources));
    }

    #[test]
    fn lists_hold_the_successor_sets() {
        let g = DagGenerator::new(200, 4.0, 60).seed(9).generate();
        let sources = vec![1, 33];
        let (_, _, store, mut pool) = run(&g, &sources);
        for &s in &sources {
            let mut got = tc_succ::ListCursor::new(&store, s)
                .collect_nodes(&mut pool)
                .unwrap();
            got.sort_unstable();
            assert_eq!(got, closure::successors_of(&g, s));
        }
    }

    #[test]
    fn selection_efficiency_is_optimal() {
        // Every generated tuple lands in a source list (§6.3.2).
        let g = DagGenerator::new(300, 5.0, 100).seed(2).generate();
        let (m, _, _, _) = run(&g, &[10, 20]);
        assert_eq!(m.tuples_generated, m.source_tuples);
        assert!((m.selection_efficiency() - 1.0).abs() < 1e-12);
        assert_eq!(m.arcs_marked, 0, "SRCH never marks");
    }

    #[test]
    fn unions_grow_superlinearly_with_overlapping_sources() {
        // k searches re-walk shared regions: unions(s1 ∪ s2) =
        // unions(s1) + unions(s2) even when the regions overlap.
        let g = DagGenerator::new(400, 3.0, 100).seed(5).generate();
        let (m1, _, _, _) = run(&g, &[0]);
        let (m2, _, _, _) = run(&g, &[1]);
        let (m12, _, _, _) = run(&g, &[0, 1]);
        assert_eq!(m12.unions, m1.unions + m2.unions);
    }

    #[test]
    fn self_cycle_free_source_excluded_from_own_list() {
        let g = Graph::from_arcs(3, [(0, 1), (1, 2)]);
        let (_, pairs, _, _) = run(&g, &[0]);
        assert_eq!(pairs, vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn empty_sources() {
        let g = DagGenerator::new(50, 2.0, 10).seed(1).generate();
        let (m, pairs, _, _) = run(&g, &[]);
        assert!(pairs.is_empty());
        assert_eq!(m.unions, 0);
    }
}
