//! Topological ordering.
//!
//! Every algorithm in the study's uniform framework begins by
//! topologically sorting the (magic) graph during the restructuring phase
//! (§4). Successor lists are then laid out and expanded with respect to
//! this order, which is what makes the marking optimization equivalent to
//! transitive reduction and what gives "arc locality" its meaning.

use crate::graph::{Graph, NodeId};

/// Returns a topological order of `g` (parents before children), or
/// `None` if `g` has a cycle.
///
/// Kahn's algorithm with a smallest-id tie-break so that orders are
/// deterministic and node-id-stable: the paper's generator only creates
/// arcs from lower- to higher-numbered nodes, so on generated graphs the
/// order coincides with node order, matching the paper's layout.
pub fn topological_order(g: &Graph) -> Option<Vec<NodeId>> {
    let n = g.n();
    let mut indeg = g.in_degrees();
    // Min-heap via sorted insertion would be O(n^2); use a BinaryHeap.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut ready: BinaryHeap<Reverse<NodeId>> = (0..n as NodeId)
        .filter(|&u| indeg[u as usize] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(u)) = ready.pop() {
        order.push(u);
        for &v in g.children(u) {
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                ready.push(Reverse(v));
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Returns the reverse topological order (children before parents), or
/// `None` on a cyclic graph.
///
/// This is the expansion order of the computation phase: a node is
/// expanded only after all of its successors, so unioning the *full*
/// successor list of each immediate successor (the immediate successor
/// optimization) is correct.
pub fn reverse_topological_order(g: &Graph) -> Option<Vec<NodeId>> {
    topological_order(g).map(|mut o| {
        o.reverse();
        o
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Positions of each node in `order` (inverse permutation).
    fn positions(order: &[NodeId], n: usize) -> Vec<usize> {
        let mut pos = vec![usize::MAX; n];
        for (i, &u) in order.iter().enumerate() {
            pos[u as usize] = i;
        }
        pos
    }

    fn check_topo(g: &Graph, order: &[NodeId]) {
        let pos = positions(order, g.n());
        assert_eq!(order.len(), g.n());
        for (u, v) in g.arcs() {
            assert!(pos[u as usize] < pos[v as usize], "arc ({u},{v}) violated");
        }
    }

    #[test]
    fn sorts_a_dag() {
        let g = Graph::from_arcs(6, [(0, 2), (1, 2), (2, 3), (3, 4), (1, 5), (5, 4)]);
        let order = topological_order(&g).unwrap();
        check_topo(&g, &order);
    }

    #[test]
    fn detects_cycles() {
        let g = Graph::from_arcs(3, [(0, 1), (1, 2), (2, 0)]);
        assert!(topological_order(&g).is_none());
        assert!(reverse_topological_order(&g).is_none());
    }

    #[test]
    fn generator_style_graphs_keep_node_order() {
        // Arcs only go low -> high, so the tie-broken order is identity.
        let g = Graph::from_arcs(5, [(0, 3), (1, 2), (2, 4)]);
        assert_eq!(topological_order(&g).unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(reverse_topological_order(&g).unwrap(), vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(
            topological_order(&Graph::empty(0)).unwrap(),
            Vec::<NodeId>::new()
        );
        assert_eq!(topological_order(&Graph::empty(1)).unwrap(), vec![0]);
    }
}
