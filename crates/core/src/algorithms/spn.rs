//! SPN — the Spanning Tree algorithm (paper §3.5).
//!
//! Successor information is kept as successor *spanning trees* rather
//! than flat lists: each internal node is stored once (negated), followed
//! by its children. When the tree of a child `c` is unioned into the tree
//! being expanded and a node `x` is found to be already present, `x`'s
//! whole subtree is pruned — its entries are not processed and no
//! duplicates are generated for them. The pages holding the pruned
//! entries are still fetched, which is why the paper finds the tuple-I/O
//! saving does not become a page-I/O saving, while the trees' extra
//! parent entries make the lists (and the final write-out) *larger* than
//! BTC's.

use crate::algorithms::{AnswerCollector, ChildIndex};
use crate::metrics::CostMetrics;
use crate::restructure::Restructured;
use tc_buffer::BufferPool;
use tc_storage::StorageResult;
use tc_succ::tree::{TreeAppender, TreeScanState, TreeStep};
use tc_succ::{ListCursor, NodeBitVec};

/// Expands every node as a successor spanning tree, in reverse
/// topological order.
pub fn expand_all(
    pool: &mut BufferPool,
    r: &mut Restructured,
    metrics: &mut CostMetrics,
    answer: &mut AnswerCollector,
) -> StorageResult<()> {
    let n = r.children.len();
    let mut bitvec = NodeBitVec::new(n);
    let mut skips = NodeBitVec::new(n);
    // covered[x] ⟺ succ(x) is already fully present in the tree being
    // expanded. Pruning x's subtree is only sound then: a spanning tree
    // scatters succ(x) across branches, so mere presence of x (e.g. as a
    // seed child whose own union has not run) does not imply coverage.
    // A node becomes covered when a union that saw it completes, because
    // the complete union of S_c delivers all of succ(c) ⊇ succ(x).
    let mut covered = NodeBitVec::new(n);
    let mut cidx = ChildIndex::new(n);
    // Scratch reused by every node and union: the list being unioned,
    // the marked flags of the node's children, the nodes a union visited,
    // the new successors it brings.
    let mut entries = Vec::new();
    let mut marked: Vec<bool> = Vec::new();
    let mut seen_this_union: Vec<u32> = Vec::new();
    let mut fresh: Vec<u32> = Vec::new();

    for i in (0..r.order.len()).rev() {
        let u = r.order[i];
        let children = &r.children[u as usize];
        if children.is_empty() {
            continue;
        }
        let nchildren = children.len();
        cidx.load(children);
        bitvec.clear_fast();
        covered.clear_fast();

        // Seed from the initial (flat, root-level) list of children; the
        // node is expanded exactly once, so no parent markers exist yet.
        metrics.count_list_fetch();
        ListCursor::new(&r.store, u).collect_into(pool, &mut entries)?;
        for w in &entries {
            debug_assert!(!w.is_tagged());
            metrics.count_tuple_read();
            bitvec.insert(w.node());
        }
        let is_source = r.is_source[u as usize];
        let mut appender = TreeAppender::new(u);

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

            // Union the successor tree of c into the tree of u, pruning
            // subtrees rooted at already-present nodes. The raw entries
            // are materialized first (every page fetched — the paper's
            // "real I/O was not saved" observation), then classified; the
            // new entries are pushed and written as one run at the end.
            skips.clear_fast();
            ListCursor::new(&r.store, c).collect_into(pool, &mut entries)?;
            let mut state = TreeScanState::new(c);
            seen_this_union.clear();
            fresh.clear();
            for w in &entries {
                match state.step(w.entry(), &mut skips) {
                    TreeStep::Marker => {
                        metrics.count_tuple_read();
                    }
                    TreeStep::Pruned(x) => {
                        metrics.count_pruned(1);
                        // x sits under a covered ancestor, so succ(x) is
                        // fully present too.
                        covered.insert(x);
                    }
                    TreeStep::Visit { parent, node: x } => {
                        metrics.count_tuple_read();
                        seen_this_union.push(x);
                        if bitvec.insert(x) {
                            // Root-level entries of S_c arrive with
                            // parent == c, which is where they belong in
                            // u's tree (c is a child of u, so present).
                            appender.push(parent, x);
                            fresh.push(x);
                        } else {
                            metrics.count_duplicate();
                            // Marking is sound even when x is not yet
                            // covered: x ∈ succ(c), and this union's
                            // completion delivers all of succ(c).
                            if let Some(cj) = cidx.position(x) {
                                if cj > ci {
                                    marked[cj] = true;
                                }
                            }
                            if covered.contains(x) {
                                skips.insert(x); // prune x's subtree
                            }
                            // Not covered: keep scanning x's group; its
                            // entries dedupe individually, exactly like a
                            // flat-list union would.
                        }
                    }
                }
            }
            // No restart path re-reads a half-written union, so its
            // tuples are counted once the whole run is written.
            appender.flush(pool, &mut r.store)?;
            for &x in &fresh {
                metrics.count_generated(is_source);
                if is_source {
                    answer.emit(u, x);
                }
            }
            // The union is complete: every node it touched now has its
            // full successor set in u's tree.
            covered.insert(c);
            for &x in &seen_this_union {
                covered.insert(x);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::query::Query;
    use crate::restructure::{restructure, RestructureOptions, Restructured};
    use crate::Algorithm;
    use tc_buffer::PagePolicy;
    use tc_graph::{closure, DagGenerator, Graph};
    use tc_succ::ListPolicy;

    fn run_one(
        g: &Graph,
        query: &Query,
        spn: bool,
    ) -> (Restructured, CostMetrics, BufferPool, Vec<(u32, u32)>) {
        let mut db = Database::build(g, false).unwrap();
        let disk = db.store.take().unwrap();
        let mut pool = BufferPool::with_store(disk, 10, PagePolicy::Lru);
        let mut metrics = CostMetrics::new(if spn { Algorithm::Spn } else { Algorithm::Btc });
        let mut r = restructure(
            &db,
            &mut pool,
            query,
            &RestructureOptions {
                single_parent_reduction: false,
                build_lists: true,
                tree_format: spn,
                list_policy: ListPolicy::Spill,
            },
            &mut metrics,
        )
        .unwrap();
        let mut answer = AnswerCollector::new(true);
        for &s in &r.sources.clone() {
            for &c in r.children(s) {
                answer.emit(s, c);
            }
        }
        if spn {
            expand_all(&mut pool, &mut r, &mut metrics, &mut answer).unwrap();
        } else {
            crate::algorithms::btc::expand_all(&mut pool, &mut r, &mut metrics, &mut answer)
                .unwrap();
        }
        (r, metrics, pool, answer.into_pairs())
    }

    #[test]
    fn full_closure_matches_oracle() {
        let g = DagGenerator::new(200, 4.0, 50).seed(31).generate();
        let (_, _, _, pairs) = run_one(&g, &Query::full(), true);
        assert_eq!(
            pairs,
            closure::ptc_answer(&g, &(0..200).collect::<Vec<_>>())
        );
    }

    #[test]
    fn trees_encode_real_paths() {
        // Every (parent, child) pair stored in an expanded tree must be a
        // real arc of the graph — the structural information SPN sells.
        let g = DagGenerator::new(150, 3.0, 40).seed(7).generate();
        let (r, _, mut pool, _) = run_one(&g, &Query::full(), true);
        let mut skips = NodeBitVec::new(150);
        for u in 0..150u32 {
            let mut scan = TreeScanState::new(u);
            let entries = ListCursor::new(&r.store, u).collect_entries(&mut pool);
            for e in entries.unwrap() {
                let TreeStep::Visit { parent: p, node: v } = scan.step(e, &mut skips) else {
                    continue;
                };
                if p == u {
                    assert!(g.has_arc(u, v), "root arc ({u},{v})");
                } else {
                    assert!(g.has_arc(p, v), "tree arc ({p},{v}) under {u}");
                }
            }
        }
    }

    #[test]
    fn generates_fewer_duplicates_than_btc() {
        // Figure 7 (b): subtree pruning avoids duplicate derivations.
        let g = DagGenerator::new(400, 5.0, 200).seed(13).generate();
        let (_, spn_m, _, _) = run_one(&g, &Query::full(), true);
        let (_, btc_m, _, _) = run_one(&g, &Query::full(), false);
        assert!(
            spn_m.duplicates < btc_m.duplicates,
            "SPN {} vs BTC {}",
            spn_m.duplicates,
            btc_m.duplicates
        );
        // Same distinct tuples either way.
        assert_eq!(spn_m.tuples_generated, btc_m.tuples_generated);
        // And the pruning is visible.
        assert!(spn_m.entries_pruned > 0);
    }

    #[test]
    fn tree_lists_are_larger_than_flat_lists() {
        // The parent markers inflate storage (Figure 7 (a)'s explanation).
        let g = DagGenerator::new(300, 4.0, 100).seed(19).generate();
        let (r_spn, _, _, _) = run_one(&g, &Query::full(), true);
        let (r_btc, _, _, _) = run_one(&g, &Query::full(), false);
        assert!(r_spn.store.stats().entries_written > r_btc.store.stats().entries_written);
    }

    #[test]
    fn ptc_matches_oracle() {
        let g = DagGenerator::new(250, 3.0, 60).seed(2).generate();
        let sources = vec![3, 40, 77];
        let (_, _, _, pairs) = run_one(&g, &Query::partial(sources.clone()), true);
        assert_eq!(pairs, closure::ptc_answer(&g, &sources));
    }

    #[test]
    fn works_under_every_list_policy() {
        let g = DagGenerator::new(300, 5.0, 100).seed(41).generate();
        let expect = closure::ptc_answer(&g, &(0..300).collect::<Vec<_>>());
        for policy in ListPolicy::ALL {
            let mut db = Database::build(&g, false).unwrap();
            let disk = db.store.take().unwrap();
            let mut pool = BufferPool::with_store(disk, 10, PagePolicy::Lru);
            let mut metrics = CostMetrics::new(Algorithm::Spn);
            let mut r = restructure(
                &db,
                &mut pool,
                &Query::full(),
                &RestructureOptions {
                    single_parent_reduction: false,
                    build_lists: true,
                    tree_format: true,
                    list_policy: policy,
                },
                &mut metrics,
            )
            .unwrap();
            let mut answer = AnswerCollector::new(true);
            for &s in &r.sources.clone() {
                for &c in r.children(s) {
                    answer.emit(s, c);
                }
            }
            expand_all(&mut pool, &mut r, &mut metrics, &mut answer).unwrap();
            assert_eq!(answer.into_pairs(), expect, "{}", policy.name());
        }
    }
}
