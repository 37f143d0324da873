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

use tc_graph::NodeId;
use tc_trace::{Event, Tracer};

/// Collects answer tuples: always counts, optionally materializes the
/// pairs for validation. Collection is an in-memory bookkeeping device
/// and charges no I/O; the on-disk write-out is modeled separately.
pub struct AnswerCollector {
    collect: bool,
    count: u64,
    pairs: Vec<(NodeId, NodeId)>,
    trace: Tracer,
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
            pairs: Vec::new(),
            trace: tracer,
        }
    }

    /// Records the answer tuple `(source, successor)`.
    #[inline]
    pub fn emit(&mut self, s: NodeId, x: NodeId) {
        self.count += 1;
        self.trace.emit(Event::TupleEmit { source: s, node: x });
        if self.collect {
            self.pairs.push((s, x));
        }
    }

    /// Distinct answer tuples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The collected pairs (empty unless collecting), sorted.
    ///
    /// Node ids are dense, so this is an LSD radix sort with one digit
    /// per component: a stable counting pass on the successor, then one
    /// on the source — linear in pairs + ids, against a comparison sort
    /// of the ~1.5 M tuples of a full closure. The scratch buffer of the
    /// first pass is freed before returning.
    pub fn into_pairs(self) -> Vec<(NodeId, NodeId)> {
        let mut pairs = self.pairs;
        let mut scratch = vec![(0, 0); pairs.len()];
        counting_pass(&pairs, &mut scratch, |p| p.1);
        counting_pass(&scratch, &mut pairs, |p| p.0);
        pairs
    }
}

/// Stable counting sort of `src` into `dst` (same length) by `key`.
fn counting_pass(
    src: &[(NodeId, NodeId)],
    dst: &mut [(NodeId, NodeId)],
    key: impl Fn(&(NodeId, NodeId)) -> NodeId,
) {
    let buckets = src.iter().map(&key).max().map_or(0, |m| m as usize + 1);
    // next[k]: where the next pair with key k goes.
    let mut next = vec![0usize; buckets];
    for p in src {
        next[key(p) as usize] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        start += std::mem::replace(slot, start);
    }
    for p in src {
        let slot = &mut next[key(p) as usize];
        dst[*slot] = *p;
        *slot += 1;
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
