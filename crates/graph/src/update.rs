//! Seeded arc-update streams for dynamic-closure experiments.
//!
//! The paper computes closures from scratch; the dynamic-maintenance
//! scenario (ROADMAP open item 2) needs reproducible *streams* of arc
//! insertions and deletions against a base graph. This module generates
//! them under the same determinism regime as [`DagGenerator`]: one
//! `tc_det` RNG seeded per stream, no ambient entropy, so a `(graph,
//! kind, shape, seed)` tuple always yields the same batches.
//!
//! Acyclicity is preserved *by construction*: inserted arcs always go
//! from an earlier to a later node in a topological order of the base
//! graph, fixed once before the stream starts. Deleting arcs can never
//! create a cycle, so every prefix of the stream leaves the graph a DAG
//! — the invariant the incremental engine in `tc-core` relies on.
//!
//! [`DagGenerator`]: crate::DagGenerator

use crate::graph::{Graph, NodeId};
use crate::topo::topological_order;
use tc_det::Rng;

/// A single arc update.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum UpdateOp {
    /// Insert arc `(src, dst)`.
    Insert(NodeId, NodeId),
    /// Delete arc `(src, dst)`.
    Delete(NodeId, NodeId),
}

impl UpdateOp {
    /// The arc the operation touches.
    pub fn arc(&self) -> (NodeId, NodeId) {
        match *self {
            UpdateOp::Insert(u, v) | UpdateOp::Delete(u, v) => (u, v),
        }
    }

    /// Whether the operation is an insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, UpdateOp::Insert(..))
    }
}

/// The churn profile of a stream: the probability that each generated
/// operation is an insertion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamKind {
    /// Only insertions (probability 1).
    InsertOnly,
    /// Deletion-dominated churn (insert probability 1/4).
    DeleteHeavy,
    /// Balanced churn (insert probability 1/2).
    Mixed,
}

impl StreamKind {
    /// All stream kinds, in report order.
    pub const ALL: [StreamKind; 3] = [
        StreamKind::InsertOnly,
        StreamKind::DeleteHeavy,
        StreamKind::Mixed,
    ];

    /// Short lowercase name used in reports and trace file names.
    pub fn name(&self) -> &'static str {
        match self {
            StreamKind::InsertOnly => "insert-only",
            StreamKind::DeleteHeavy => "delete-heavy",
            StreamKind::Mixed => "mixed",
        }
    }

    /// Probability that a generated operation is an insertion.
    fn insert_probability(&self) -> f64 {
        match self {
            StreamKind::InsertOnly => 1.0,
            StreamKind::DeleteHeavy => 0.25,
            StreamKind::Mixed => 0.5,
        }
    }
}

/// A seeded sequence of update batches against a base graph.
///
/// Every operation is valid at its point in the stream when the batches
/// are applied in order starting from the base graph: insertions name
/// arcs absent at that point, deletions name arcs present at that point,
/// and the graph stays acyclic after every prefix.
///
/// ```
/// use tc_graph::{DagGenerator, StreamKind, UpdateStream};
///
/// let g = DagGenerator::new(200, 3.0, 40).seed(7).generate();
/// let s = UpdateStream::generate(&g, StreamKind::Mixed, 4, 16, 40, 99);
/// assert_eq!(s.batches().len(), 4);
/// let mut live = g.clone();
/// for batch in s.batches() {
///     for op in batch {
///         let applied = match *op {
///             tc_graph::UpdateOp::Insert(u, v) => live.add_arc(u, v),
///             tc_graph::UpdateOp::Delete(u, v) => live.remove_arc(u, v),
///         };
///         assert!(applied);
///     }
///     assert!(live.is_acyclic());
/// }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UpdateStream {
    batches: Vec<Vec<UpdateOp>>,
}

impl UpdateStream {
    /// Generates a stream of `batches` batches of up to `batch_size`
    /// operations each against `graph`, with inserted arcs restricted to
    /// span at most `locality` positions of the base topological order
    /// (mirroring the generator's locality parameter `l`).
    ///
    /// A batch can come up short of `batch_size` when the generator
    /// cannot place an operation (e.g. a delete against a graph with no
    /// arcs left, or an insert whose sampled slots are all occupied);
    /// the shortfall is deterministic for a given seed.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is cyclic (update streams preserve acyclicity
    /// relative to a topological order, which a cyclic graph lacks) or
    /// if `locality == 0`.
    pub fn generate(
        graph: &Graph,
        kind: StreamKind,
        batches: usize,
        batch_size: usize,
        locality: usize,
        seed: u64,
    ) -> UpdateStream {
        assert!(locality >= 1, "locality must be at least 1");
        let Some(order) = topological_order(graph) else {
            panic!("UpdateStream::generate requires an acyclic base graph (condense cycles first)")
        };
        let mut rng = Rng::from_seed(seed);
        let mut live = graph.clone();
        // Current arc list, kept in sync so deletions can sample
        // uniformly by index (swap_remove keeps this O(1) and, being
        // seeded, deterministic).
        let mut arcs: Vec<(NodeId, NodeId)> = live.arcs().collect();
        let insert_p = kind.insert_probability();
        let n = order.len();
        let mut out = Vec::with_capacity(batches);
        for _ in 0..batches {
            let mut batch = Vec::with_capacity(batch_size);
            for _ in 0..batch_size {
                let want_insert = n >= 2 && (arcs.is_empty() || rng.random_bool(insert_p));
                if want_insert {
                    // Sample a position pair i < j within the locality
                    // window; a bounded number of retries absorbs slots
                    // already occupied by an arc.
                    for _ in 0..32 {
                        let i = rng.random_range(0..n - 1);
                        let hi = (i + locality).min(n - 1);
                        let j = rng.random_range(i + 1..=hi);
                        let (u, v) = (order[i], order[j]);
                        if live.add_arc(u, v) {
                            arcs.push((u, v));
                            batch.push(UpdateOp::Insert(u, v));
                            break;
                        }
                    }
                } else if !arcs.is_empty() {
                    let idx = rng.random_range(0..arcs.len());
                    let (u, v) = arcs.swap_remove(idx);
                    live.remove_arc(u, v);
                    batch.push(UpdateOp::Delete(u, v));
                }
            }
            out.push(batch);
        }
        UpdateStream { batches: out }
    }

    /// The generated batches, in application order.
    pub fn batches(&self) -> &[Vec<UpdateOp>] {
        &self.batches
    }

    /// Total number of operations across all batches.
    pub fn op_count(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Number of insert operations across all batches.
    pub fn insert_count(&self) -> usize {
        self.batches
            .iter()
            .flatten()
            .filter(|op| op.is_insert())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagGenerator;

    fn base() -> Graph {
        DagGenerator::new(300, 3.0, 60).seed(5).generate()
    }

    /// Applies the stream batch by batch, asserting op validity and
    /// acyclicity after every prefix; returns the final graph.
    fn replay(g: &Graph, s: &UpdateStream) -> Graph {
        let mut live = g.clone();
        for batch in s.batches() {
            for op in batch {
                let ok = match *op {
                    UpdateOp::Insert(u, v) => live.add_arc(u, v),
                    UpdateOp::Delete(u, v) => live.remove_arc(u, v),
                };
                assert!(ok, "invalid op {op:?}");
            }
            assert!(live.is_acyclic(), "stream broke acyclicity");
        }
        live
    }

    #[test]
    fn deterministic_per_seed() {
        let g = base();
        let a = UpdateStream::generate(&g, StreamKind::Mixed, 5, 20, 60, 42);
        let b = UpdateStream::generate(&g, StreamKind::Mixed, 5, 20, 60, 42);
        let c = UpdateStream::generate(&g, StreamKind::Mixed, 5, 20, 60, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn all_kinds_stay_valid_and_acyclic() {
        let g = base();
        for kind in StreamKind::ALL {
            let s = UpdateStream::generate(&g, kind, 6, 25, 60, 7);
            assert_eq!(s.batches().len(), 6);
            assert!(s.op_count() > 0);
            replay(&g, &s);
        }
    }

    #[test]
    fn insert_only_never_deletes() {
        let g = base();
        let s = UpdateStream::generate(&g, StreamKind::InsertOnly, 4, 30, 60, 3);
        assert_eq!(s.insert_count(), s.op_count());
        let after = replay(&g, &s);
        assert_eq!(after.arc_count(), g.arc_count() + s.op_count());
    }

    #[test]
    fn delete_heavy_shrinks_the_graph() {
        let g = base();
        let s = UpdateStream::generate(&g, StreamKind::DeleteHeavy, 4, 40, 60, 3);
        let deletes = s.op_count() - s.insert_count();
        assert!(deletes > s.insert_count(), "expected delete-dominated mix");
        let after = replay(&g, &s);
        assert!(after.arc_count() < g.arc_count());
    }

    #[test]
    fn empty_graph_starts_with_an_insert() {
        let g = Graph::empty(10);
        let s = UpdateStream::generate(&g, StreamKind::DeleteHeavy, 2, 5, 10, 1);
        // Nothing to delete at first: the opening op must be an insert
        // (later ops may delete what the stream itself inserted).
        assert!(s.op_count() > 0);
        assert!(s.batches()[0][0].is_insert());
        replay(&g, &s);
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn cyclic_base_panics() {
        let g = Graph::from_arcs(3, [(0, 1), (1, 2), (2, 0)]);
        let _ = UpdateStream::generate(&g, StreamKind::Mixed, 1, 1, 2, 0);
    }
}
