//! Transitive reduction of DAGs.
//!
//! The paper leans on Aho–Garey–Ullman's result that a DAG has a *unique*
//! transitive reduction \[4\], and on the equivalence (shown in \[10, 17\])
//! between the marking optimization on a topologically sorted graph and
//! transitive reduction: an arc `(i, j)` is *redundant* iff an alternative
//! path from `i` to `j` exists, and exactly the redundant arcs get marked.
//! The reduction is used here for graph statistics (Table 2's
//! "average irredundant locality") and as the oracle that validates the
//! marking behaviour of the disk-based algorithms.

use crate::bitmat::BitMatrix;
use crate::closure::dfs_closure;
use crate::graph::Graph;

/// Computes the transitive reduction of a DAG.
///
/// An arc `(u, v)` is kept iff no other child `w` of `u` reaches `v`.
/// Runs on the closure matrix, so it is exact and `O(n·d²)` bit-row work.
///
/// # Panics
///
/// Panics if `g` is cyclic (the reduction is only unique for DAGs).
pub fn transitive_reduction(g: &Graph) -> Graph {
    assert!(g.is_acyclic(), "transitive reduction requires a DAG");
    let tc = dfs_closure(g);
    reduction_with_closure(g, &tc)
}

/// Transitive reduction given a precomputed closure of `g`.
fn reduction_with_closure(g: &Graph, tc: &BitMatrix) -> Graph {
    let mut arcs = Vec::new();
    for u in 0..g.n() as u32 {
        let children = g.children(u);
        for &v in children {
            let redundant = children.iter().any(|&w| w != v && tc.get(w, v));
            if !redundant {
                arcs.push((u, v));
            }
        }
    }
    Graph::from_arcs(g.n(), arcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::DagGenerator;
    use crate::topo::topological_order;

    #[test]
    fn removes_shortcut_arc() {
        // 0->1->2 plus the shortcut 0->2.
        let g = Graph::from_arcs(3, [(0, 1), (1, 2), (0, 2)]);
        let tr = transitive_reduction(&g);
        assert_eq!(tr.arc_count(), 2);
        assert!(!tr.has_arc(0, 2));
        assert_eq!(dfs_closure(&g), dfs_closure(&tr));
    }

    #[test]
    fn reduction_of_reduction_is_identity() {
        let g = DagGenerator::new(200, 4.0, 50).seed(11).generate();
        let tr = transitive_reduction(&g);
        let tr2 = transitive_reduction(&tr);
        assert_eq!(tr, tr2);
    }

    #[test]
    fn reduction_is_minimal_and_equivalent() {
        let g = DagGenerator::new(120, 3.0, 30).seed(5).generate();
        let tr = transitive_reduction(&g);
        assert!(tr.arc_count() <= g.arc_count());
        let tc = dfs_closure(&tr);
        assert_eq!(dfs_closure(&g), tc);
        // Minimality: removing any arc of the reduction changes the closure.
        let arcs: Vec<_> = tr.arcs().collect();
        for &(u, v) in arcs.iter().take(20) {
            let smaller = Graph::from_arcs(tr.n(), arcs.iter().copied().filter(|&a| a != (u, v)));
            assert!(
                dfs_closure(&smaller) != tc,
                "arc ({u},{v}) was removable — reduction not minimal"
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires a DAG")]
    fn rejects_cycles() {
        let g = Graph::from_arcs(2, [(0, 1), (1, 0)]);
        let _ = transitive_reduction(&g);
    }

    #[test]
    fn preserves_topological_structure() {
        let g = DagGenerator::new(100, 4.0, 25).seed(8).generate();
        let tr = transitive_reduction(&g);
        assert!(topological_order(&tr).is_some());
    }
}
