//! The in-memory directed graph type.

use std::collections::BTreeSet;

/// Node identifier. The study's graphs number nodes `0..n`.
pub type NodeId = u32;

/// A directed graph in adjacency-list form.
///
/// Children lists are kept sorted and duplicate-free (the paper's
/// generator "eliminated duplicate tuples"). The type is deliberately
/// simple — the interesting storage behaviour lives in the paged
/// representation built by the engine's restructuring phase; this type
/// backs workload generation, statistics and the correctness oracles.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    m: usize,
}

impl Graph {
    /// Creates an empty graph with `n` nodes and no arcs.
    pub fn empty(n: usize) -> Graph {
        Graph {
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Builds a graph from an arc list, deduplicating and dropping
    /// self-loops (the study's graphs are irreflexive).
    pub fn from_arcs(n: usize, arcs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Graph {
        let mut sets: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];
        for (u, v) in arcs {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "arc endpoint out of range"
            );
            if u != v {
                sets[u as usize].insert(v);
            }
        }
        let mut m = 0;
        let adj: Vec<Vec<NodeId>> = sets
            .into_iter()
            .map(|s| {
                let v: Vec<NodeId> = s.into_iter().collect();
                m += v.len();
                v
            })
            .collect();
        Graph { adj, m }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of arcs (the paper's `|G|`).
    pub fn arc_count(&self) -> usize {
        self.m
    }

    /// The (sorted) children of `u`.
    pub fn children(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u as usize]
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.adj[u as usize].len()
    }

    /// Whether the arc `(u, v)` exists (binary search).
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Adds arc `(u, v)` if absent; returns whether it was inserted.
    pub fn add_arc(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!((u as usize) < self.n() && (v as usize) < self.n());
        if u == v {
            return false;
        }
        match self.adj[u as usize].binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.adj[u as usize].insert(pos, v);
                self.m += 1;
                true
            }
        }
    }

    /// Removes arc `(u, v)` if present; returns whether it was removed.
    pub fn remove_arc(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!((u as usize) < self.n() && (v as usize) < self.n());
        match self.adj[u as usize].binary_search(&v) {
            Ok(pos) => {
                self.adj[u as usize].remove(pos);
                self.m -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates all arcs in `(source, destination)` order.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as NodeId, v)))
    }

    /// The arc-reversed graph (used for predecessor structures).
    pub fn reversed(&self) -> Graph {
        let mut rev = vec![Vec::new(); self.n()];
        for (u, v) in self.arcs() {
            rev[v as usize].push(u);
        }
        for l in &mut rev {
            l.sort_unstable();
        }
        Graph {
            adj: rev,
            m: self.m,
        }
    }

    /// In-degrees of all nodes.
    pub(crate) fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n()];
        for (_, v) in self.arcs() {
            deg[v as usize] += 1;
        }
        deg
    }

    /// Whether the graph is acyclic (has a topological order).
    pub fn is_acyclic(&self) -> bool {
        crate::topo::topological_order(self).is_some()
    }

    /// Average out-degree.
    pub fn avg_out_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.m as f64 / self.n() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_arcs_dedups_and_sorts() {
        let g = Graph::from_arcs(4, [(0, 2), (0, 1), (0, 2), (3, 3), (2, 1)]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.arc_count(), 3, "dup and self-loop dropped");
        assert_eq!(g.children(0), &[1, 2]);
        assert_eq!(g.children(3), &[] as &[NodeId]);
    }

    #[test]
    fn add_arc_maintains_invariants() {
        let mut g = Graph::empty(3);
        assert!(g.add_arc(0, 2));
        assert!(g.add_arc(0, 1));
        assert!(!g.add_arc(0, 2));
        assert!(!g.add_arc(1, 1));
        assert_eq!(g.children(0), &[1, 2]);
        assert_eq!(g.arc_count(), 2);
        assert!(g.has_arc(0, 1));
        assert!(!g.has_arc(1, 0));
    }

    #[test]
    fn remove_arc_maintains_invariants() {
        let mut g = Graph::from_arcs(3, [(0, 1), (0, 2), (1, 2)]);
        assert!(g.remove_arc(0, 1));
        assert!(!g.remove_arc(0, 1), "already gone");
        assert!(!g.remove_arc(2, 0), "never existed");
        assert_eq!(g.children(0), &[2]);
        assert_eq!(g.arc_count(), 2);
        assert!(g.add_arc(0, 1), "reinsertable after removal");
        assert_eq!(g.children(0), &[1, 2]);
    }

    #[test]
    fn arcs_iterates_in_order() {
        let g = Graph::from_arcs(3, [(1, 2), (0, 1), (0, 2)]);
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn reversed_swaps_arcs() {
        let g = Graph::from_arcs(3, [(0, 1), (0, 2), (1, 2)]);
        let r = g.reversed();
        assert_eq!(r.children(2), &[0, 1]);
        assert_eq!(r.children(0), &[] as &[NodeId]);
        assert_eq!(r.arc_count(), 3);
        assert_eq!(r.reversed(), g);
    }

    #[test]
    fn degrees() {
        let g = Graph::from_arcs(3, [(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degrees(), vec![0, 1, 2]);
        assert!((g.avg_out_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn acyclicity() {
        assert!(Graph::from_arcs(3, [(0, 1), (1, 2)]).is_acyclic());
        assert!(!Graph::from_arcs(3, [(0, 1), (1, 2), (2, 0)]).is_acyclic());
        assert!(Graph::empty(0).is_acyclic());
    }
}
