//! JKB / JKB2 — Jakobsson's Compute_Tree algorithm (paper §3.6, §4.1).
//!
//! Compute_Tree works on the *arc-reversed* magic graph: processing nodes
//! in forward topological order, it maintains for each node `x` a
//! **predecessor tree** containing only the *special* predecessors of `x`
//! — the source nodes that reach `x`, plus the nearest merge points of
//! unrelated sources. Such a tree has at most `2·|S|` nodes, which is why
//! the algorithm's lists are tiny and become memory-resident at modest
//! buffer sizes (Figure 13), and why its selection efficiency is high
//! (Figure 9). The flip side measured by the paper: with only partial
//! predecessor information almost no markings are found, so nearly every
//! magic arc costs a union (Figures 10, 11).
//!
//! The two implementations differ only in preprocessing — how the
//! immediate predecessor lists are derived:
//!
//! * **JKB2** assumes the dual representation: probe the inverse relation
//!   (clustered + indexed on destination) per magic node. Costs about as
//!   much as the forward search, i.e. ≈ 2× BTC's preprocessing.
//! * **JKB** has only the source-clustered relation: the magic arcs are
//!   re-emitted as `(dst, src)` pairs and inserted into the paged
//!   predecessor store in *source-major* (i.e. destination-random) order
//!   — each insertion touches a random list page, and once the store
//!   outgrows the pool nearly every insertion is a physical I/O. This is
//!   the "prohibitively expensive" preprocessing the paper reports for
//!   high out-degrees. A sort-based variant (external-sort the arcs by
//!   destination, then build clustered) is provided as an ablation.

use crate::algorithms::AnswerCollector;
use crate::database::Database;
use crate::metrics::CostMetrics;
use crate::restructure::Restructured;
use tc_buffer::BufferPool;
use tc_graph::BitRow;
use tc_storage::{extsort, FileKind, StorageResult, TupleWriter};
use tc_succ::tree::{TreeAppender, TreeScanState, TreeStep};
use tc_succ::{ListCursor, ListPolicy, NodeBitVec, SuccStore};

/// How the immediate predecessor lists are built.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Preprocessing {
    /// JKB2: probe the inverse relation per magic node.
    DualRepresentation,
    /// JKB: destination-random insertion from the forward arc stream.
    RandomInsertion,
    /// JKB ablation: external-sort the magic arcs by destination first.
    SortedInsertion,
}

/// Builds the immediate-predecessor store for the magic graph.
pub fn preprocess(
    db: &Database,
    pool: &mut BufferPool,
    r: &Restructured,
    mode: Preprocessing,
    list_policy: ListPolicy,
    metrics: &mut CostMetrics,
) -> StorageResult<SuccStore> {
    let n = r.children.len();
    let mut pred = SuccStore::new(pool, n, list_policy);
    match mode {
        Preprocessing::DualRepresentation => {
            let inverse = db
                .inverse
                .as_ref()
                .expect("JKB2 requires the dual representation");
            let mut buf: Vec<u32> = Vec::new();
            for &x in &r.order {
                buf.clear();
                inverse.children(pool, x, &mut buf)?;
                for &p in &buf {
                    metrics.count_tuple_read();
                    // Keep only magic predecessors.
                    if r.pos[p as usize] != usize::MAX {
                        pred.append_flat(pool, x, p)?;
                    }
                }
            }
        }
        Preprocessing::RandomInsertion => {
            // The forward arc stream is already in memory from the magic
            // search; re-inserting it by destination is the expensive
            // part: the store's pages are touched in random order.
            for &u in &r.order {
                for &c in r.children(u) {
                    pred.append_flat(pool, c, u)?;
                }
            }
        }
        Preprocessing::SortedInsertion => {
            // Spill the reversed arcs, external-sort by destination, then
            // build the predecessor lists clustered.
            let mut w = TupleWriter::new(pool, FileKind::Temp);
            for &u in &r.order {
                for &c in r.children(u) {
                    w.push(pool, (c, u))?;
                }
            }
            let arcs_file = w.finish();
            let mem = pool.capacity().saturating_sub(2).max(3);
            let sorted = extsort::external_sort(pool, &arcs_file, mem, FileKind::Temp)?;
            pool.free_file(arcs_file.file_id())?;
            let pairs = sorted.scan(pool)?;
            pool.free_file(sorted.file_id())?;
            for (x, p) in pairs {
                pred.append_flat(pool, x, p)?;
            }
        }
    }
    Ok(pred)
}

/// The Compute_Tree computation phase: builds the special-node
/// predecessor trees in forward topological order, emitting answer
/// tuples `(source, x)` to `output` as sources enter `x`'s tree.
///
/// Returns the tree store (scratch; the engine discards it after the
/// output write-out).
pub fn compute(
    pool: &mut BufferPool,
    r: &Restructured,
    pred: &SuccStore,
    metrics: &mut CostMetrics,
    answer: &mut AnswerCollector,
    output: &mut TupleWriter,
) -> StorageResult<SuccStore> {
    let n = r.children.len();
    let mut trees = SuccStore::new(pool, n, ListPolicy::Spill);
    let mut special: Vec<bool> = r.is_source.clone();
    let mut bitvec = NodeBitVec::new(n);
    let mut skips = NodeBitVec::new(n);
    // covered[v] ⟺ all of v's special ancestors are already in T_x.
    // Pruning v's subtree (or skipping a whole contribution) is only
    // sound then: a node's subtree placement is path-dependent, so mere
    // presence of v does not imply its ancestors came along. A node
    // becomes covered when a contribution that saw it completes (the
    // complete union of T_p delivers all special ancestors of p ⊇ those
    // of v).
    let mut covered = NodeBitVec::new(n);

    // Source-cover bitsets: covers[x] = the set of sources reaching x
    // (indexed into the source list). x is a merge point — special — only
    // if no single special node above it already covers that set; this is
    // the operational form of the paper's "nearest common ancestor of at
    // least two unrelated sources" (see DESIGN.md). `covers[x]` is written
    // when x is processed; `src_index[v]` is v's position in the source
    // list, `NOT_A_SOURCE` if it has none.
    const NOT_A_SOURCE: u32 = u32::MAX;
    let mut src_index = vec![NOT_A_SOURCE; n];
    for (i, &s) in r.sources.iter().enumerate() {
        src_index[s as usize] = i as u32;
    }
    let mut covers = vec![BitRow::new(r.sources.len()); n];
    // Scratch cleared per node or per union instead of reallocated: x's
    // predecessors, the tree being unioned, the nodes a union visited,
    // x's cover, and T_x's roots. A root is live unless `demoted` holds
    // it: a later contribution showed it nested under another special
    // node.
    let mut preds = Vec::new();
    let mut entries = Vec::new();
    let mut seen_this_union: Vec<u32> = Vec::new();
    let mut my_cover = BitRow::new(r.sources.len());
    let mut roots: Vec<u32> = Vec::new();
    let mut demoted = NodeBitVec::new(n);

    for &x in &r.order {
        bitvec.clear_fast();
        covered.clear_fast();
        demoted.clear_fast();
        roots.clear();
        metrics.count_list_fetch();
        ListCursor::new(pred, x).collect_into(pool, &mut preds)?;
        metrics.count_tuple_reads(preds.len() as u64);
        // Merge the largest contributions first: broad trees that already
        // contain a merge point land before the narrow related paths they
        // cover, which keeps those paths from masquerading as new roots.
        preds.sort_by_key(|w| {
            let p = w.node();
            std::cmp::Reverse(trees.len(p) + usize::from(special[p as usize]))
        });
        let mut appender = TreeAppender::new(x);

        // Forward source-cover DP (pure in-memory bookkeeping).
        my_cover.clear();
        let i = src_index[x as usize];
        if i != NOT_A_SOURCE {
            my_cover.set(i);
        }
        for w in &preds {
            my_cover.union_with(&covers[w.node() as usize]);
        }

        for w in &preds {
            let p = w.node();
            metrics.count_arc(false);
            let p_special = special[p as usize];
            let p_tree_empty = trees.is_empty(p);
            if !p_special && p_tree_empty {
                // Nothing above p (cannot happen for magic non-sources,
                // but harmless to guard).
                continue;
            }
            // Note what Compute_Tree does *not* do here: detect that p's
            // whole contribution is already present and skip the union.
            // Its partial (special-node-only) lists miss almost every
            // marking opportunity, so the redundant union is performed —
            // "this redundant union requires the predecessor tree of d to
            // be in memory, and may cause an I/O" (§6.3.3, Figure 11).
            metrics.count_union();
            metrics.count_list_fetch();
            metrics.count_locality(r.arc_locality(p, x));

            if p_special && bitvec.insert(p) {
                // p roots its own contribution.
                appender.append(pool, &mut trees, x, p)?;
                roots.push(p);
                metrics.count_generated(r.is_source[p as usize]);
                if r.is_source[p as usize] {
                    answer.emit(p, x);
                    output.push(pool, (p, x))?;
                }
            }
            // Scan T_p, pruning subtrees of already-present nodes. When p
            // is special, T_p's root-level entries belong under p; when it
            // is not, they stay at root level of T_x.
            skips.clear_fast();
            ListCursor::new(&trees, p).collect_into(pool, &mut entries)?;
            let mut state = TreeScanState::new(p);
            seen_this_union.clear();
            for w in &entries {
                match state.step(w.entry(), &mut skips) {
                    TreeStep::Marker => {
                        metrics.count_tuple_read();
                    }
                    TreeStep::Pruned(v) => {
                        metrics.count_pruned(1);
                        covered.insert(v);
                    }
                    TreeStep::Visit { parent, node: v } => {
                        metrics.count_tuple_read();
                        seen_this_union.push(v);
                        let at_root = parent == p && !p_special;
                        if bitvec.insert(v) {
                            let mapped = if at_root { x } else { parent };
                            appender.append(pool, &mut trees, mapped, v)?;
                            if at_root {
                                roots.push(v);
                            }
                            metrics.count_generated(r.is_source[v as usize]);
                            if r.is_source[v as usize] {
                                answer.emit(v, x);
                                output.push(pool, (v, x))?;
                            }
                        } else {
                            metrics.count_duplicate();
                            if !at_root {
                                // v is nested under another special node:
                                // if it entered as a root, demote it (v is
                                // already in T_x, so it cannot enter later).
                                demoted.insert(v);
                            }
                            if covered.contains(v) {
                                skips.insert(v);
                            }
                        }
                    }
                }
            }
            // Contribution complete: everything it touched is covered.
            covered.insert(p);
            for &v in &seen_this_union {
                covered.insert(v);
            }
        }
        // x becomes special iff ≥ 2 roots of T_x stay live — the merge of
        // source information not yet covered by any single special node
        // (the paper's nearest common ancestor of unrelated sources).
        let mut live = roots.iter().filter(|&&rt| !demoted.contains(rt));
        if !r.is_source[x as usize]
            && live.clone().count() >= 2
            && !live.any(|&rt| covers[rt as usize] == my_cover)
        {
            special[x as usize] = true;
        }
        covers[x as usize].copy_from(&my_cover);
    }
    Ok(trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::restructure::{restructure, RestructureOptions};
    use crate::Algorithm;
    use tc_buffer::PagePolicy;
    use tc_graph::{closure, DagGenerator, Graph};

    fn run_jkb(
        g: &Graph,
        sources: Option<Vec<u32>>,
        mode: Preprocessing,
        m: usize,
    ) -> (CostMetrics, Vec<(u32, u32)>, SuccStore) {
        let mut db = Database::build(g, mode == Preprocessing::DualRepresentation).unwrap();
        let disk = db.store.take().unwrap();
        let mut pool = BufferPool::with_store(disk, m, PagePolicy::Lru);
        let mut metrics = CostMetrics::new(Algorithm::Jkb2);
        let query = match sources {
            Some(s) => Query::partial(s),
            None => Query::full(),
        };
        let r = restructure(
            &db,
            &mut pool,
            &query,
            &RestructureOptions {
                single_parent_reduction: false,
                build_lists: false,
                tree_format: false,
                list_policy: ListPolicy::Spill,
            },
            &mut metrics,
        )
        .unwrap();
        let pred = preprocess(&db, &mut pool, &r, mode, ListPolicy::Spill, &mut metrics).unwrap();
        let mut answer = AnswerCollector::new(true);
        let mut out = TupleWriter::new(&mut pool, FileKind::Output);
        let trees = compute(&mut pool, &r, &pred, &mut metrics, &mut answer, &mut out).unwrap();
        (metrics, answer.into_pairs(), trees)
    }

    #[test]
    fn ptc_matches_oracle_all_preprocessing_modes() {
        let g = DagGenerator::new(250, 3.0, 60).seed(43).generate();
        let sources = vec![2, 31, 90];
        let expect = closure::ptc_answer(&g, &sources)
            .into_iter()
            .collect::<Vec<_>>();
        for mode in [
            Preprocessing::DualRepresentation,
            Preprocessing::RandomInsertion,
            Preprocessing::SortedInsertion,
        ] {
            let (_, pairs, _) = run_jkb(&g, Some(sources.clone()), mode, 10);
            assert_eq!(pairs, expect, "{mode:?}");
        }
    }

    #[test]
    fn full_closure_matches_oracle() {
        let g = DagGenerator::new(150, 3.0, 40).seed(3).generate();
        let expect = closure::ptc_answer(&g, &(0..150).collect::<Vec<_>>());
        let (_, pairs, _) = run_jkb(&g, None, Preprocessing::DualRepresentation, 20);
        assert_eq!(pairs, expect);
    }

    #[test]
    fn trees_stay_small() {
        // |T_x| ≤ 2|S| node entries (§3.6); with parent markers the
        // stored list is at most twice that.
        let g = DagGenerator::new(400, 5.0, 100).seed(7).generate();
        let sources: Vec<u32> = vec![0, 3, 9, 14, 22];
        let (_, _, trees) = run_jkb(
            &g,
            Some(sources.clone()),
            Preprocessing::DualRepresentation,
            20,
        );
        // Jakobsson's bound is 2|S| tree nodes; our reconstruction can
        // carry a few extra parallel merge points plus parent markers, so
        // allow a constant factor while still asserting O(|S|), far below
        // the O(n) ancestor sets a flat-list algorithm would hold.
        for x in 0..400u32 {
            assert!(
                trees.len(x) <= 8 * sources.len(),
                "tree of {x} has {} entries",
                trees.len(x)
            );
        }
    }

    #[test]
    fn near_zero_marking_but_many_unions() {
        // Figures 10 and 11: JKB misses almost all markings and performs
        // roughly one union per magic arc.
        let g = DagGenerator::new(400, 5.0, 100).seed(13).generate();
        let sources: Vec<u32> = (0..10).collect();
        let (m, _, _) = run_jkb(&g, Some(sources), Preprocessing::DualRepresentation, 10);
        assert_eq!(m.arcs_marked, 0, "Compute_Tree finds no markings");
        assert!(m.unions as f64 >= 0.75 * m.arcs_processed as f64);
    }

    #[test]
    fn high_selection_efficiency() {
        // Figure 9: most generated tuples are answer tuples.
        let g = DagGenerator::new(500, 5.0, 120).seed(17).generate();
        let sources: Vec<u32> = vec![1, 50, 100, 200];
        let (m, _, _) = run_jkb(
            &g,
            Some(sources.clone()),
            Preprocessing::DualRepresentation,
            10,
        );
        assert!(
            m.selection_efficiency() > 0.2,
            "sel.eff {}",
            m.selection_efficiency()
        );
        // And it must dwarf BTC's efficiency on the same query (the
        // paper's Figure 9 contrast).
        let mut db = Database::build(&g, false).unwrap();
        let btc = db
            .run(
                &Query::partial(sources),
                crate::Algorithm::Btc,
                &crate::SystemConfig::default(),
            )
            .unwrap();
        assert!(
            m.selection_efficiency() > 4.0 * btc.metrics.selection_efficiency(),
            "JKB2 {} vs BTC {}",
            m.selection_efficiency(),
            btc.metrics.selection_efficiency()
        );
    }

    #[test]
    fn random_insertion_costs_more_io_than_dual() {
        // The paper's JKB-vs-JKB2 preprocessing gap.
        let g = DagGenerator::new(1000, 20.0, 500).seed(5).generate();
        let sources: Vec<u32> = (0..5).collect();
        let (m_rand, _, _) = run_jkb(
            &g,
            Some(sources.clone()),
            Preprocessing::RandomInsertion,
            10,
        );
        let (m_dual, _, _) = run_jkb(&g, Some(sources), Preprocessing::DualRepresentation, 10);
        // Compare physical I/O attributed so far (restructure counters are
        // filled by the engine; here compare the raw work proxies).
        assert!(
            m_rand.tuple_reads <= m_dual.tuple_reads,
            "dual reads the inverse relation; random insertion reads nothing extra"
        );
        // The real gap shows in page I/O, asserted in the engine tests.
    }
}
