//! The computation phase: one module per candidate algorithm (§4.1).
//!
//! All list-based algorithms (`BTC`, `HYB`, `BJ`, `SPN`) share the
//! reverse-topological expansion skeleton with the immediate-successor
//! and marking optimizations; they differ in the list representation
//! (flat vs. tree) and in blocking. `SRCH` replaces the whole framework
//! with per-source search; `JKB`/`JKB2` process predecessor trees in
//! forward topological order; `Seminaive` is the iterative baseline.

pub mod btc;
pub mod hybrid;
pub mod jkb;
pub mod search;
pub mod seminaive;
pub mod spn;

use crate::metrics::CostMetrics;
use tc_buffer::BufferPool;
use tc_graph::{BitMatrix, NodeId};
use tc_storage::StorageResult;
use tc_succ::SuccStore;
use tc_trace::{Event, Tracer};

/// Ends a union into `u`'s flat list: writes its new successors `fresh`
/// as one run, then counts (and, for a source, emits) exactly the ones
/// the run put on a page before returning the run's error, if any.
///
/// A tuple is generated if and only if its entry was written. HYB's
/// dynamic reblocking depends on it: a restarted block re-seeds its
/// duplicate filters from the lists, so a tuple written but not counted
/// would never be counted, and one counted but not written would be
/// counted twice.
pub(crate) fn write_union(
    pool: &mut BufferPool,
    store: &mut SuccStore,
    u: NodeId,
    fresh: &[NodeId],
    is_source: bool,
    metrics: &mut CostMetrics,
    answer: &mut AnswerCollector,
) -> StorageResult<()> {
    let before = store.len(u);
    let written = store.extend_flat(pool, u, fresh);
    for &x in &fresh[..store.len(u) - before] {
        metrics.count_generated(is_source);
        if is_source {
            answer.emit(u, x);
        }
    }
    written
}

/// Collects answer tuples: always counts, optionally materializes the
/// pairs for validation. Collection is an in-memory bookkeeping device
/// and charges no I/O; the on-disk write-out is modeled separately.
///
/// Node ids are dense and a closure is too, so the pairs are kept as a
/// [`BitMatrix`] — one row of id bits per source — once that matrix is no
/// larger than the pairs it replaces (a pair and a matrix word are both
/// 8 bytes). The matrix needs an id bound
/// ([`AnswerCollector::with_id_bound`]; the engine passes the graph's
/// node count): the collector switches the moment its pair list reaches
/// the matrix's size, and from then on an emit sets a bit. Without a
/// bound it keeps the pair list. A bit cannot hold a repeated tuple, so
/// a repeat stays in the pair list, as does any tuple outside the
/// matrix; either way the result is the sorted multiset of what was
/// emitted.
pub struct AnswerCollector {
    collect: bool,
    count: u64,
    bound: Option<usize>,
    /// Every tuple before the switch; after it, the tuples no bit took.
    pairs: Vec<(NodeId, NodeId)>,
    matrix: Option<BitMatrix>,
    trace: Tracer,
}

/// Sets the bit of `(s, x)`; `false` when the matrix has no such bit or
/// it was set already.
#[inline]
fn take(m: &mut BitMatrix, s: NodeId, x: NodeId) -> bool {
    let n = m.n();
    (s as usize) < n && (x as usize) < n && m.set(s, x)
}

impl AnswerCollector {
    /// Creates a collector; `collect` keeps the pairs.
    pub fn new(collect: bool) -> AnswerCollector {
        AnswerCollector::traced(collect, Tracer::disabled())
    }

    /// Creates a collector that also emits every tuple through `tracer`.
    pub fn traced(collect: bool, tracer: Tracer) -> AnswerCollector {
        AnswerCollector {
            collect,
            count: 0,
            bound: None,
            pairs: Vec::new(),
            matrix: None,
            trace: tracer,
        }
    }

    /// Declares that sources and successors are ids below `n`, so the
    /// collector can switch to its bit matrix while tuples arrive.
    pub fn with_id_bound(mut self, n: usize) -> AnswerCollector {
        self.bound = Some(n);
        self
    }

    /// Records the answer tuple `(source, successor)`.
    #[inline]
    pub fn emit(&mut self, s: NodeId, x: NodeId) {
        self.count += 1;
        self.trace.emit(Event::TupleEmit { source: s, node: x });
        if self.collect && !self.matrix.as_mut().is_some_and(|m| take(m, s, x)) {
            self.pairs.push((s, x));
            if let (None, Some(n)) = (&self.matrix, self.bound) {
                self.switch(n);
            }
        }
    }

    /// The switch rule: an `n` × `n` bit matrix replaces the pair list
    /// once it is no larger than the list. Marks the pairs it can and
    /// keeps the rest.
    fn switch(&mut self, n: usize) {
        if BitMatrix::words(n) > self.pairs.len() {
            return;
        }
        let mut m = BitMatrix::new(n);
        self.pairs.retain(|&(s, x)| !take(&mut m, s, x));
        self.pairs.shrink_to_fit();
        self.matrix = Some(m);
    }

    /// Answer tuples recorded, a repeated tuple counted every time (the
    /// algorithms emit each tuple once).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The collected pairs (empty unless collecting), sorted; a tuple
    /// emitted more than once stays in as often as it was emitted.
    ///
    /// The matrix rows are read out once, in order, into an exactly sized
    /// vector; the pair list is merged in by a comparison sort only when
    /// it is not empty. A collector that never switched is
    /// comparison-sorted.
    pub fn into_pairs(self) -> Vec<(NodeId, NodeId)> {
        let mut pairs = self.pairs;
        let Some(m) = self.matrix else {
            pairs.sort_unstable();
            return pairs;
        };
        let mut out = Vec::with_capacity(m.pair_count() + pairs.len());
        for s in 0..m.n() as NodeId {
            out.extend(m.ones(s).map(|x| (s, x)));
        }
        if !pairs.is_empty() {
            out.append(&mut pairs);
            out.sort_unstable();
        }
        out
    }
}

/// Per-node child bookkeeping for the marking optimization: maps a child
/// to its position in the node's (topologically ordered) child list.
pub struct ChildIndex {
    /// position+1 per node id; 0 = not a child. Rebuilt per expanded node
    /// with O(children) reset.
    slot: Vec<u32>,
    touched: Vec<NodeId>,
}

impl ChildIndex {
    /// Creates an index over a graph of `n` nodes.
    pub fn new(n: usize) -> ChildIndex {
        ChildIndex {
            slot: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// Loads the children of one node (in their processing order).
    pub fn load(&mut self, children: &[NodeId]) {
        for &c in &self.touched {
            self.slot[c as usize] = 0;
        }
        self.touched.clear();
        for (i, &c) in children.iter().enumerate() {
            self.slot[c as usize] = i as u32 + 1;
            self.touched.push(c);
        }
    }

    /// The position of `x` among the loaded children, if it is one.
    #[inline]
    pub fn position(&self, x: NodeId) -> Option<usize> {
        let s = self.slot[x as usize];
        (s != 0).then(|| (s - 1) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_collector_counts_and_collects() {
        let mut a = AnswerCollector::new(true);
        a.emit(2, 3);
        a.emit(1, 9);
        assert_eq!(a.count(), 2);
        assert_eq!(a.into_pairs(), vec![(1, 9), (2, 3)]);

        let mut b = AnswerCollector::new(false);
        b.emit(0, 1);
        assert_eq!(b.count(), 1);
        assert!(b.into_pairs().is_empty());
    }

    #[test]
    fn child_index_reloads_cleanly() {
        let mut ci = ChildIndex::new(10);
        ci.load(&[3, 7, 1]);
        assert_eq!(ci.position(3), Some(0));
        assert_eq!(ci.position(1), Some(2));
        assert_eq!(ci.position(5), None);
        ci.load(&[5]);
        assert_eq!(ci.position(3), None, "stale entries cleared");
        assert_eq!(ci.position(5), Some(0));
    }
}
