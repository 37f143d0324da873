//! BTC — the basic graph-based algorithm (paper §3.1).
//!
//! Successor lists are expanded in reverse topological order. Expanding a
//! node unions the *full* successor list of each immediate successor (the
//! immediate successor optimization — valid because children are complete
//! by the time the parent is expanded). Children are processed in
//! topological order, and a child found to be already present in the
//! accumulating list is *marked* and skipped; on a topologically sorted
//! DAG the marked arcs are exactly the redundant (non-transitive-
//! reduction) arcs.
//!
//! `BJ` is this same expansion run on the single-parent-reduced magic
//! graph; `HYB` with `ILIMIT = 0` runs it unchanged.

use crate::algorithms::{write_union, AnswerCollector, ChildIndex};
use crate::metrics::CostMetrics;
use crate::restructure::Restructured;
use tc_buffer::BufferPool;
use tc_storage::StorageResult;
use tc_succ::{ListCursor, NodeBitVec};

/// Expands every node of the restructured graph in reverse topological
/// order (the BTC computation phase). Every unmarked child's list is
/// fully expanded by the time its parent is.
pub fn expand_all(
    pool: &mut BufferPool,
    r: &mut Restructured,
    metrics: &mut CostMetrics,
    answer: &mut AnswerCollector,
) -> StorageResult<()> {
    let n = r.children.len();
    let mut bitvec = NodeBitVec::new(n);
    let mut cidx = ChildIndex::new(n);
    // Scratch reused by every node and union: the list being unioned, the
    // new successors it brings, and the marked flags of the node's children.
    let mut entries = Vec::new();
    let mut fresh: Vec<u32> = Vec::new();
    let mut marked: Vec<bool> = Vec::new();
    for i in (0..r.order.len()).rev() {
        let u = r.order[i];
        let children = &r.children[u as usize];
        if children.is_empty() {
            continue;
        }
        let nchildren = children.len();
        cidx.load(children);
        bitvec.clear_fast();

        // Seed the duplicate filter from the list's current contents (the
        // immediate children written during restructuring) — this read is
        // the paper's "tuples of the input relation ... converted into
        // successor lists" being picked back up for expansion.
        metrics.count_list_fetch();
        ListCursor::new(&r.store, u).collect_into(pool, &mut entries)?;
        for w in &entries {
            metrics.count_tuple_read();
            bitvec.insert(w.node());
        }
        let is_source = r.is_source[u as usize];

        marked.clear();
        marked.resize(nchildren, false);
        for ci in 0..nchildren {
            let c = r.children[u as usize][ci];
            if marked[ci] {
                metrics.count_arc(true);
                continue;
            }
            metrics.count_arc(false);
            metrics.count_union();
            metrics.count_list_fetch();
            metrics.count_locality(r.arc_locality(u, c));

            // Union S_c into S_u (materialized: see ListCursor::collect_entries);
            // the new successors are written as one run when it ends.
            ListCursor::new(&r.store, c).collect_into(pool, &mut entries)?;
            fresh.clear();
            for w in &entries {
                metrics.count_tuple_read();
                let x = w.node();
                if bitvec.insert(x) {
                    fresh.push(x);
                } else {
                    metrics.count_duplicate();
                    // Marking optimization: x reached u through c, so a
                    // direct arc (u, x) not yet expanded is redundant.
                    if let Some(cj) = cidx.position(x) {
                        if cj > ci {
                            marked[cj] = true;
                        }
                    }
                }
            }
            write_union(pool, &mut r.store, u, &fresh, is_source, metrics, answer)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::query::Query;
    use crate::restructure::{restructure, RestructureOptions};
    use crate::Algorithm;
    use tc_buffer::PagePolicy;
    use tc_graph::{closure, reduction, DagGenerator, Graph};
    use tc_succ::ListPolicy;

    fn run_btc(
        g: &Graph,
        query: &Query,
    ) -> (Restructured, CostMetrics, BufferPool, Vec<(u32, u32)>) {
        let mut db = Database::build(g, false).unwrap();
        let disk = db.store.take().unwrap();
        let mut pool = BufferPool::with_store(disk, 10, PagePolicy::Lru);
        let mut metrics = CostMetrics::new(Algorithm::Btc);
        let mut r = restructure(
            &db,
            &mut pool,
            query,
            &RestructureOptions {
                single_parent_reduction: false,
                build_lists: true,
                tree_format: false,
                list_policy: ListPolicy::Spill,
            },
            &mut metrics,
        )
        .unwrap();
        let mut answer = AnswerCollector::new(true);
        // Immediate children of sources are part of the answer.
        for &s in &r.sources.clone() {
            for &c in r.children(s) {
                answer.emit(s, c);
            }
        }
        expand_all(&mut pool, &mut r, &mut metrics, &mut answer).unwrap();
        (r, metrics, pool, answer.into_pairs())
    }

    #[test]
    fn full_closure_matches_oracle() {
        let g = DagGenerator::new(250, 3.0, 60).seed(17).generate();
        let (_, _, _, pairs) = run_btc(&g, &Query::full());
        let expect = closure::ptc_answer(&g, &(0..250).collect::<Vec<_>>());
        assert_eq!(pairs, expect);
    }

    #[test]
    fn expanded_lists_hold_exact_successor_sets() {
        let g = DagGenerator::new(120, 4.0, 30).seed(3).generate();
        let (r, _, mut pool, _) = run_btc(&g, &Query::full());
        for u in 0..120u32 {
            let mut got = ListCursor::new(&r.store, u)
                .collect_nodes(&mut pool)
                .unwrap();
            got.sort_unstable();
            assert_eq!(got, closure::successors_of(&g, u), "node {u}");
        }
    }

    #[test]
    fn marking_equals_transitive_reduction() {
        // On a topologically sorted DAG the unmarked arcs are exactly the
        // transitive reduction (paper §3.1 / [10, 17]).
        let g = DagGenerator::new(200, 5.0, 50).seed(23).generate();
        let (_, m, _, _) = run_btc(&g, &Query::full());
        let tr = reduction::transitive_reduction(&g);
        let redundant = g.arc_count() - tr.arc_count();
        assert_eq!(m.arcs_marked as usize, redundant);
        assert_eq!(m.arcs_processed as usize, g.arc_count());
        assert_eq!(m.unions as usize, tr.arc_count());
    }

    #[test]
    fn ptc_answers_only_sources() {
        let g = DagGenerator::new(300, 3.0, 80).seed(5).generate();
        let sources = vec![2, 50, 101];
        let (_, m, _, pairs) = run_btc(&g, &Query::partial(sources.clone()));
        assert_eq!(pairs, closure::ptc_answer(&g, &sources));
        // Selection efficiency of BTC is poor: it generated tuples for
        // non-source magic nodes too.
        assert!(m.tuples_generated >= m.source_tuples);
    }

    #[test]
    fn shortcut_arc_is_marked() {
        // 0 -> 1 -> 2 with shortcut 0 -> 2.
        let g = Graph::from_arcs(3, [(0, 1), (1, 2), (0, 2)]);
        let (_, m, _, pairs) = run_btc(&g, &Query::full());
        assert_eq!(m.arcs_marked, 1);
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = Graph::empty(10);
        let (_, m, _, pairs) = run_btc(&g, &Query::full());
        assert!(pairs.is_empty());
        assert_eq!(m.unions, 0);
    }
}
