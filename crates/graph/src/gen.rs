//! Synthetic DAG workloads (paper §5.2) and auxiliary graph families.
//!
//! The paper's generator is parameterized by the number of nodes `n`, the
//! average out-degree `F`, and the *generation locality* `l`:
//!
//! > "The actual out degree of each node is chosen using a uniform
//! > distribution between 0 and 2F. To create a DAG with locality l, arcs
//! > going out of a node i are restricted to go to higher numbered nodes
//! > in the range \[i+1, min(i+l, n)\]."
//!
//! Duplicate arcs are eliminated, so the realized arc count can be lower
//! than `n × F` — most visibly when `l` caps the number of distinct
//! targets (the paper calls out G10, where `F = 50` but only 20 targets
//! exist per node).

use crate::graph::{Graph, NodeId};
use tc_det::Rng;

/// Generator of the paper's locality-bounded random DAGs.
///
/// ```
/// use tc_graph::DagGenerator;
/// let g = DagGenerator::new(2000, 2.0, 200).seed(7).generate();
/// assert_eq!(g.n(), 2000);
/// // Arcs respect the locality window and the low->high direction.
/// for (u, v) in g.arcs() {
///     assert!(v > u && v <= u + 200);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct DagGenerator {
    n: usize,
    avg_out_degree: f64,
    locality: usize,
    seed: u64,
}

impl DagGenerator {
    /// Creates a generator for `n` nodes, average out-degree `f` and
    /// generation locality `l` (the paper's `n`, `F`, `l`).
    pub fn new(n: usize, f: f64, l: usize) -> DagGenerator {
        assert!(f >= 0.0, "average out-degree must be non-negative");
        assert!(l >= 1, "locality must be at least 1");
        DagGenerator {
            n,
            avg_out_degree: f,
            locality: l,
            seed: 0,
        }
    }

    /// Sets the RNG seed (each of the paper's 5 instances per family uses
    /// a distinct seed).
    pub fn seed(mut self, seed: u64) -> DagGenerator {
        self.seed = seed;
        self
    }

    /// Generates the DAG.
    pub fn generate(&self) -> Graph {
        let mut rng = Rng::from_seed(self.seed);
        let n = self.n;
        let mut arcs: Vec<(NodeId, NodeId)> = Vec::new();
        for i in 0..n {
            // Out-degree ~ U(0, 2F), inclusive bounds.
            let max_deg = (2.0 * self.avg_out_degree).round() as usize;
            let deg = if max_deg == 0 {
                0
            } else {
                rng.random_range(0..=max_deg)
            };
            // Window of admissible targets: [i+1, min(i+l, n)] with the
            // paper's 1-based node numbering translated to 0-based ids:
            // targets in (i, min(i + l, n - 1)].
            let hi = (i + self.locality).min(n.saturating_sub(1));
            if hi <= i {
                continue; // no admissible target (e.g. last node)
            }
            for _ in 0..deg {
                let v = rng.random_range((i + 1)..=hi) as NodeId;
                arcs.push((i as NodeId, v));
            }
        }
        // Graph::from_arcs eliminates the duplicates.
        Graph::from_arcs(n, arcs)
    }
}

/// A path `0 -> 1 -> ... -> n-1` (maximally deep DAG).
pub fn path(n: usize) -> Graph {
    Graph::from_arcs(n, (1..n).map(|i| ((i - 1) as NodeId, i as NodeId)))
}

/// A complete binary out-tree with `n` nodes (node `i` has children
/// `2i+1`, `2i+2`).
pub fn binary_tree(n: usize) -> Graph {
    let mut arcs = Vec::new();
    for i in 0..n {
        for c in [2 * i + 1, 2 * i + 2] {
            if c < n {
                arcs.push((i as NodeId, c as NodeId));
            }
        }
    }
    Graph::from_arcs(n, arcs)
}

/// A layered DAG: `layers` layers of `width` nodes, every node connected
/// to all nodes of the next layer (maximally redundant — high `W(G)`).
pub fn layered(layers: usize, width: usize) -> Graph {
    let n = layers * width;
    let mut arcs = Vec::new();
    for l in 0..layers.saturating_sub(1) {
        for a in 0..width {
            for b in 0..width {
                arcs.push(((l * width + a) as NodeId, ((l + 1) * width + b) as NodeId));
            }
        }
    }
    Graph::from_arcs(n, arcs)
}

/// A random graph *with cycles*: the locality DAG plus `back_arcs` random
/// back edges. Used to exercise the condensation path (§1).
pub fn cyclic(n: usize, f: f64, l: usize, back_arcs: usize, seed: u64) -> Graph {
    let mut g = DagGenerator::new(n, f, l).seed(seed).generate();
    let mut rng = Rng::from_seed(seed ^ 0xDEAD_BEEF);
    let mut added = 0;
    let mut attempts = 0;
    while added < back_arcs && attempts < back_arcs * 20 && n >= 2 {
        attempts += 1;
        let u = rng.random_range(1..n) as NodeId;
        let v = rng.random_range(0..u);
        if g.add_arc(u, v) {
            added += 1;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_locality_window_and_direction() {
        let g = DagGenerator::new(500, 5.0, 20).seed(3).generate();
        for (u, v) in g.arcs() {
            assert!(v > u);
            assert!((v - u) as usize <= 20);
        }
        assert!(g.is_acyclic());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = DagGenerator::new(300, 3.0, 50).seed(9).generate();
        let b = DagGenerator::new(300, 3.0, 50).seed(9).generate();
        let c = DagGenerator::new(300, 3.0, 50).seed(10).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn average_out_degree_in_regime() {
        // Dedup and window truncation pull the mean below F, but it should
        // be in the right regime for l >> F.
        let g = DagGenerator::new(2000, 5.0, 2000).seed(1).generate();
        let avg = g.avg_out_degree();
        assert!(avg > 3.5 && avg < 6.0, "avg out-degree {avg}");
    }

    #[test]
    fn locality_caps_realized_degree() {
        // The paper's G10 effect: F = 50 but only 20 distinct targets.
        let g = DagGenerator::new(2000, 50.0, 20).seed(1).generate();
        for u in 0..g.n() as NodeId {
            assert!(g.out_degree(u) <= 20);
        }
        assert!((g.arc_count() as f64) < 2000.0 * 50.0 * 0.5);
    }

    #[test]
    fn zero_degree_graph() {
        let g = DagGenerator::new(100, 0.0, 10).seed(1).generate();
        assert_eq!(g.arc_count(), 0);
    }

    #[test]
    fn families() {
        let p = path(5);
        assert_eq!(p.arc_count(), 4);
        let t = binary_tree(7);
        assert_eq!(t.arc_count(), 6);
        let l = layered(3, 4);
        assert_eq!(l.n(), 12);
        assert_eq!(l.arc_count(), 2 * 16);
        assert!(l.is_acyclic());
        let c = cyclic(100, 2.0, 20, 10, 5);
        assert!(!c.is_acyclic());
    }
}
