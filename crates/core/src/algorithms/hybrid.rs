//! HYB — the Hybrid algorithm (paper §3.2).
//!
//! Successor lists are expanded a *block* at a time: a diagonal block of
//! consecutive (in topological order) lists is pinned in memory, and each
//! off-diagonal list fetched is unioned with every diagonal list that has
//! it as an unmarked child, amortizing one fetch over several unions.
//! `ILIMIT` is the fraction of the buffer pool reserved for the diagonal
//! block; when expansion overflows memory the block is shrunk (*dynamic
//! reblocking*).
//!
//! The paper's finding (Figure 6) is that blocking *hurts* here: unlike
//! the Direct algorithms, HYB uses the immediate-successor optimization,
//! so each off-diagonal list joins far fewer diagonal lists, while the
//! pinned block shrinks the effective pool, reblocking discards useful
//! pages, and processing off-diagonal parts before diagonal parts
//! forfeits markings. All four effects are mechanical consequences of
//! this implementation.

use crate::algorithms::{btc, write_union, AnswerCollector, ChildIndex};
use crate::metrics::CostMetrics;
use crate::restructure::Restructured;
use tc_buffer::BufferPool;
use tc_graph::NodeId;
use tc_storage::{PageId, StorageError, StorageResult, SuccWord};
use tc_succ::{ListCursor, NodeBitVec};

/// Expands all lists with blocking at the given `ILIMIT`.
///
/// `ilimit == 0` disables blocking, which "is identical to BTC" (§6.2).
pub fn expand_all(
    pool: &mut BufferPool,
    r: &mut Restructured,
    metrics: &mut CostMetrics,
    answer: &mut AnswerCollector,
    ilimit: f64,
) -> StorageResult<()> {
    if ilimit <= 0.0 {
        return btc::expand_all(pool, r, metrics, answer);
    }
    let m = pool.capacity();
    // Reserve a few working frames: one for the off-diagonal list being
    // scanned, one for the growing tail, one for splits.
    let budget = (((ilimit * m as f64).floor() as usize).max(1)).min(m.saturating_sub(3).max(1));

    let mut idx = r.order.len();
    // One set of tables and buffers serves every block.
    let mut state = BlockState::new(r.children.len());
    let mut block: Vec<NodeId> = Vec::new();
    let mut pages: Vec<PageId> = Vec::new();

    while idx > 0 {
        // Carve the next diagonal block off the tail of the order.
        block.clear();
        pages.clear();
        while idx > 0 {
            let u = r.order[idx - 1];
            let before = pages.len();
            r.store.add_pages_of(u, &mut pages);
            if !block.is_empty() && pages.len() > budget {
                pages.truncate(before);
                break;
            }
            block.push(u);
            idx -= 1;
            if pages.len() >= budget {
                break;
            }
        }

        // Process the block, shrinking it on memory pressure (dynamic
        // reblocking): nodes dropped from the block are pushed back onto
        // the unprocessed tail.
        state.begin_block(r, &block);
        loop {
            match process_block(pool, r, metrics, answer, &block, &mut state, &mut pages) {
                Ok(()) => break,
                Err(StorageError::AllFramesPinned) if block.len() > 1 => {
                    // Shrink: give the lowest-position node back to the
                    // unprocessed tail. It is the newest addition, so no
                    // other block node has it as a child (children sit
                    // *later* in topological order), making the drop safe.
                    let dropped = block.pop().expect("non-empty block");
                    idx += 1;
                    debug_assert_eq!(r.order[idx - 1], dropped);
                    state.in_block[dropped as usize] = false;
                }
                Err(e) => return Err(e),
            }
        }
        for &u in &block {
            state.in_block[u as usize] = false;
        }
    }
    Ok(())
}

/// Where a child arc of a block node stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ArcState {
    /// Not yet unioned, not known to be redundant.
    Pending,
    /// Found redundant by the marking optimization; never unioned.
    Marked,
    /// Unioned, or marked and accounted for.
    Done,
}

/// The tables of one diagonal block, all direct-indexed: by node id
/// (`in_block`, the child index) or by *block position* (arc states,
/// duplicate filters). Allocated once and reused by every block.
struct BlockState {
    in_block: Vec<bool>,
    /// State of every child arc of the block: the arcs of the node at
    /// block position `bi` start at `first[bi]`, aligned with its child
    /// list. Survives dynamic-reblocking restarts (a shrink only drops
    /// the last position).
    arcs: Vec<ArcState>,
    first: Vec<usize>,
    /// Duplicate filter per block position.
    bitvecs: Vec<NodeBitVec>,
    /// Child positions of the node currently being unioned into.
    cidx: ChildIndex,
    /// Off-diagonal arcs of the block as `(pos[child], bi, ci)`.
    off: Vec<(usize, usize, usize)>,
    /// The list being unioned.
    entries: Vec<SuccWord>,
    /// The new successors the union brings.
    fresh: Vec<NodeId>,
}

impl BlockState {
    fn new(n: usize) -> BlockState {
        BlockState {
            in_block: vec![false; n],
            arcs: Vec::new(),
            first: Vec::new(),
            bitvecs: Vec::new(),
            cidx: ChildIndex::new(n),
            off: Vec::new(),
            entries: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// Resets the tables for a freshly carved block.
    fn begin_block(&mut self, r: &Restructured, block: &[NodeId]) {
        self.arcs.clear();
        self.first.clear();
        for &u in block {
            self.in_block[u as usize] = true;
            self.first.push(self.arcs.len());
            let nchildren = r.children(u).len();
            self.arcs
                .resize(self.arcs.len() + nchildren, ArcState::Pending);
        }
        let n = self.in_block.len();
        while self.bitvecs.len() < block.len() {
            self.bitvecs.push(NodeBitVec::new(n));
        }
    }

    /// Unions the materialized list in `entries` into the list of `u`
    /// (block position `bi`, whose children are loaded in `cidx`),
    /// writing the new successors as one run.
    fn union(
        &mut self,
        pool: &mut BufferPool,
        r: &mut Restructured,
        metrics: &mut CostMetrics,
        answer: &mut AnswerCollector,
        bi: usize,
        u: NodeId,
    ) -> StorageResult<()> {
        let is_source = r.is_source[u as usize];
        let bv = &mut self.bitvecs[bi];
        let arcs = &mut self.arcs[self.first[bi]..];
        self.fresh.clear();
        for w in &self.entries {
            metrics.count_tuple_read();
            let x = w.node();
            if bv.insert(x) {
                self.fresh.push(x);
            } else {
                metrics.count_duplicate();
                if let Some(cj) = self.cidx.position(x) {
                    if arcs[cj] == ArcState::Pending {
                        arcs[cj] = ArcState::Marked;
                    }
                }
            }
        }
        write_union(
            pool,
            &mut r.store,
            u,
            &self.fresh,
            is_source,
            metrics,
            answer,
        )
    }
}

/// One attempt at expanding a diagonal block. On
/// [`StorageError::AllFramesPinned`] the caller shrinks the block and
/// retries; `state` carries completed work across attempts. `pages` is
/// scratch.
fn process_block(
    pool: &mut BufferPool,
    r: &mut Restructured,
    metrics: &mut CostMetrics,
    answer: &mut AnswerCollector,
    block: &[NodeId],
    state: &mut BlockState,
    pages: &mut Vec<PageId>,
) -> StorageResult<()> {
    // Pin the block's current pages (faulting them in together — the
    // "block of successor lists at a time is read into memory").
    pages.clear();
    for &u in block {
        r.store.add_pages_of(u, pages);
    }
    let mut pinned = 0;
    let result = pages
        .iter()
        .try_for_each(|&p| {
            pool.pin(p)?;
            pinned += 1;
            Ok(())
        })
        .and_then(|()| expand_block(pool, r, metrics, answer, block, state));

    // Always release our pins, success or failure.
    for &p in &pages[..pinned] {
        if pool.is_pinned(p) {
            pool.unpin(p);
        }
    }
    result
}

/// Expands a pinned diagonal block: off-diagonal arcs first, then the
/// intra-block arcs.
fn expand_block(
    pool: &mut BufferPool,
    r: &mut Restructured,
    metrics: &mut CostMetrics,
    answer: &mut AnswerCollector,
    block: &[NodeId],
    state: &mut BlockState,
) -> StorageResult<()> {
    // Seed a duplicate filter per diagonal list from its current
    // contents.
    for (bi, &u) in block.iter().enumerate() {
        state.bitvecs[bi].clear_fast();
        metrics.count_list_fetch();
        ListCursor::new(&r.store, u).collect_into(pool, &mut state.entries)?;
        for w in &state.entries {
            metrics.count_tuple_read();
            state.bitvecs[bi].insert(w.node());
        }
    }

    // ---- Off-diagonal phase. ----
    // Distinct off-diagonal children in ascending topological order
    // (nearest first), the same order BTC processes children in: a
    // union of a near list can still mark arcs to far lists and save
    // their fetches. Markings are lost only across the off-diagonal /
    // diagonal split — the paper's "expand redundant arcs" effect.
    // Sorting the arcs groups each child's takers, in block order.
    state.off.clear();
    for (bi, &u) in block.iter().enumerate() {
        for (ci, &c) in r.children(u).iter().enumerate() {
            if !state.in_block[c as usize] {
                state.off.push((r.pos[c as usize], bi, ci));
            }
        }
    }
    state.off.sort_unstable();

    let mut next = 0;
    while next < state.off.len() {
        let start = next;
        let pos = state.off[start].0;
        while next < state.off.len() && state.off[next].0 == pos {
            next += 1;
        }
        // Which diagonal lists still want this child?
        let wanted = |&(_, bi, ci): &(usize, usize, usize)| {
            state.arcs[state.first[bi] + ci] == ArcState::Pending
        };
        if !state.off[start..next].iter().any(wanted) {
            continue;
        }
        // One fetch of S_j serves every taker — blocking's benefit.
        let (_, bi, ci) = state.off[start];
        let j = r.children(block[bi])[ci];
        metrics.count_list_fetch();
        ListCursor::new(&r.store, j).collect_into(pool, &mut state.entries)?;
        for t in start..next {
            let (_, bi, ci) = state.off[t];
            let arc = state.first[bi] + ci;
            if state.arcs[arc] != ArcState::Pending {
                continue;
            }
            let u = block[bi];
            metrics.count_arc(false);
            metrics.count_union();
            metrics.count_locality(r.arc_locality(u, j));
            state.cidx.load(r.children(u));
            state.union(pool, r, metrics, answer, bi, u)?;
            state.arcs[arc] = ArcState::Done;
        }
    }

    // ---- Diagonal phase: intra-block arcs, reverse topo order. ----
    for (bi, &u) in block.iter().enumerate() {
        state.cidx.load(r.children(u));
        let first = state.first[bi];
        let nchildren = r.children(u).len();
        for ci in 0..nchildren {
            let c = r.children(u)[ci];
            if !state.in_block[c as usize] {
                continue; // off-diagonal, handled above
            }
            match state.arcs[first + ci] {
                ArcState::Done => {}
                ArcState::Marked => {
                    metrics.count_arc(true);
                    state.arcs[first + ci] = ArcState::Done;
                }
                ArcState::Pending => {
                    metrics.count_arc(false);
                    metrics.count_union();
                    metrics.count_list_fetch();
                    metrics.count_locality(r.arc_locality(u, c));
                    ListCursor::new(&r.store, c).collect_into(pool, &mut state.entries)?;
                    state.union(pool, r, metrics, answer, bi, u)?;
                    state.arcs[first + ci] = ArcState::Done;
                }
            }
        }
        // Also account marked off-diagonal arcs never unioned.
        for arc in &mut state.arcs[first..first + nchildren] {
            if *arc == ArcState::Marked {
                metrics.count_arc(true);
                *arc = ArcState::Done;
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
    use crate::restructure::{restructure, RestructureOptions};
    use crate::Algorithm;
    use tc_buffer::PagePolicy;
    use tc_graph::{closure, DagGenerator, Graph};
    use tc_succ::ListPolicy;

    fn run_hyb(g: &Graph, query: &Query, m: usize, ilimit: f64) -> (CostMetrics, Vec<(u32, u32)>) {
        let mut db = Database::build(g, false).unwrap();
        let disk = db.store.take().unwrap();
        let mut pool = BufferPool::with_store(disk, m, PagePolicy::Lru);
        let mut metrics = CostMetrics::new(Algorithm::Hyb);
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
        for &s in &r.sources.clone() {
            for &c in r.children(s) {
                answer.emit(s, c);
            }
        }
        expand_all(&mut pool, &mut r, &mut metrics, &mut answer, ilimit).unwrap();
        (metrics, answer.into_pairs())
    }

    #[test]
    fn matches_oracle_at_various_ilimits() {
        let g = DagGenerator::new(300, 4.0, 80).seed(29).generate();
        let expect = closure::ptc_answer(&g, &(0..300).collect::<Vec<_>>());
        for ilimit in [0.0, 0.1, 0.2, 0.3, 0.5] {
            let (_, pairs) = run_hyb(&g, &Query::full(), 10, ilimit);
            assert_eq!(pairs, expect, "ILIMIT {ilimit}");
        }
    }

    #[test]
    fn ilimit_zero_is_btc() {
        let g = DagGenerator::new(200, 3.0, 50).seed(3).generate();
        let (hyb_m, _) = run_hyb(&g, &Query::full(), 10, 0.0);
        // Same union/marking profile as BTC by construction.
        let tr = tc_graph::transitive_reduction(&g);
        assert_eq!(hyb_m.unions as usize, tr.arc_count());
    }

    #[test]
    fn blocking_amortizes_fetches_but_loses_markings() {
        let g = DagGenerator::new(400, 5.0, 100).seed(11).generate();
        let (btc_m, _) = run_hyb(&g, &Query::full(), 20, 0.0);
        let (hyb_m, _) = run_hyb(&g, &Query::full(), 20, 0.3);
        // Off-diagonal-first processing can only lose markings.
        assert!(hyb_m.arcs_marked <= btc_m.arcs_marked);
        // And therefore performs at least as many unions.
        assert!(hyb_m.unions >= btc_m.unions);
    }

    #[test]
    fn ptc_matches_oracle() {
        let g = DagGenerator::new(300, 3.0, 60).seed(17).generate();
        let sources = vec![1, 25, 60];
        let (_, pairs) = run_hyb(&g, &Query::partial(sources.clone()), 10, 0.2);
        assert_eq!(pairs, closure::ptc_answer(&g, &sources));
    }

    #[test]
    fn tiny_pool_still_completes() {
        // Dynamic reblocking path: a pool barely bigger than the reserve.
        let g = DagGenerator::new(300, 5.0, 300).seed(5).generate();
        let (_, pairs) = run_hyb(&g, &Query::full(), 5, 0.9);
        assert_eq!(
            pairs,
            closure::ptc_answer(&g, &(0..300).collect::<Vec<_>>())
        );
    }
}
