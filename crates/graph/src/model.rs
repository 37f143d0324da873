//! The paper's rectangle model of DAG shape (§5.3).
//!
//! Definitions (paper §5.3; the printed formulas are partially illegible
//! in surviving copies, but are fixed uniquely by Table 2's values and by
//! Theorem 1 — see DESIGN.md):
//!
//! * `level(i) = 1` for a sink, else `1 + max(level(j))` over children `j`
//!   — the length of the longest path from `i` to a sink.
//! * The **height** `H(G)` is the mean node level.
//! * The **width** `W(G) = |G| / H(G)`, mapping a DAG to a rectangle of
//!   the same "area" (arc count).
//! * The **arc locality** of `(i, j)` is `level(i) − level(j)`: the level
//!   distance the arc spans. Lists are expanded in reverse topological
//!   order, so a low-locality... high-locality arc (small distance) is
//!   more likely to find its target list still buffered.
//!
//! Theorem 1: `H(G) = H(TR(G)) = H(TC(G))` and
//! `W(TR(G)) ≤ W(G) ≤ W(TC(G))` — tested in this module and by property
//! tests. Theorem 2: the model is computable in a single traversal, which
//! is how the engine's restructuring phase collects it for free.

use crate::graph::{Graph, NodeId};
use crate::topo::reverse_topological_order;

/// Node levels: longest-path-to-sink + 1 for every node.
///
/// # Panics
///
/// Panics if `g` is cyclic.
pub fn node_levels(g: &Graph) -> Vec<u32> {
    let order = reverse_topological_order(g).expect("node levels require a DAG");
    let mut level = vec![1u32; g.n()];
    for &u in &order {
        for &v in g.children(u) {
            level[u as usize] = level[u as usize].max(level[v as usize] + 1);
        }
    }
    level
}

/// The rectangle model of a DAG: the shape statistics of Table 2.
#[derive(Clone, Debug, PartialEq)]
pub struct RectangleModel {
    /// Mean node level (the paper's `H(G)`).
    pub height: f64,
    /// `|G| / H(G)` (the paper's `W(G)`).
    pub width: f64,
    /// Maximum node level ("max. node level" in Table 2).
    pub max_level: u32,
    /// Number of arcs (`|G|`).
    pub arcs: usize,
    /// Number of nodes.
    pub nodes: usize,
}

impl RectangleModel {
    /// Computes the model for `g` (single traversal — Theorem 2).
    pub fn of(g: &Graph) -> RectangleModel {
        Self::with_levels(g, &node_levels(g))
    }

    /// Computes the model given precomputed levels.
    pub fn with_levels(g: &Graph, levels: &[u32]) -> RectangleModel {
        let n = g.n();
        let height = if n == 0 {
            0.0
        } else {
            levels.iter().map(|&l| l as f64).sum::<f64>() / n as f64
        };
        let width = if height == 0.0 {
            0.0
        } else {
            g.arc_count() as f64 / height
        };
        RectangleModel {
            height,
            width,
            max_level: levels.iter().copied().max().unwrap_or(0),
            arcs: g.arc_count(),
            nodes: n,
        }
    }
}

/// Arc-locality statistics: Table 2's "average arc locality" and
/// "average irredundant locality" columns.
#[derive(Clone, Debug, PartialEq)]
pub struct ArcLocalityStats {
    /// Mean of `level(i) − level(j)` over all arcs `(i, j)`.
    pub avg_all: f64,
    /// Mean locality over irredundant arcs only (arcs of the transitive
    /// reduction). The paper highlights that this is much lower than
    /// `avg_all`: marking skips exactly the high-distance unions.
    pub avg_irredundant: f64,
    /// Number of irredundant arcs.
    pub irredundant_arcs: usize,
}

impl ArcLocalityStats {
    /// Computes locality statistics from precomputed reduction and levels.
    pub fn with_parts(g: &Graph, tr: &Graph, levels: &[u32]) -> ArcLocalityStats {
        let loc = |u: NodeId, v: NodeId| (levels[u as usize] - levels[v as usize]) as f64;
        let (mut sum_all, mut count_all) = (0.0, 0usize);
        for (u, v) in g.arcs() {
            sum_all += loc(u, v);
            count_all += 1;
        }
        let (mut sum_irr, mut count_irr) = (0.0, 0usize);
        for (u, v) in tr.arcs() {
            sum_irr += loc(u, v);
            count_irr += 1;
        }
        ArcLocalityStats {
            avg_all: if count_all == 0 {
                0.0
            } else {
                sum_all / count_all as f64
            },
            avg_irredundant: if count_irr == 0 {
                0.0
            } else {
                sum_irr / count_irr as f64
            },
            irredundant_arcs: count_irr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::dfs_closure;
    use crate::gen::{path, DagGenerator};
    use crate::reduction::transitive_reduction;

    fn locality(g: &Graph) -> ArcLocalityStats {
        ArcLocalityStats::with_parts(g, &transitive_reduction(g), &node_levels(g))
    }

    fn closure_graph(g: &Graph) -> Graph {
        let tc = dfs_closure(g);
        let mut arcs = Vec::new();
        for u in 0..g.n() as NodeId {
            for v in tc.row_ones(u) {
                arcs.push((u, v));
            }
        }
        Graph::from_arcs(g.n(), arcs)
    }

    #[test]
    fn levels_on_a_path() {
        let g = path(4); // 0->1->2->3
        assert_eq!(node_levels(&g), vec![4, 3, 2, 1]);
        let m = RectangleModel::of(&g);
        assert!((m.height - 2.5).abs() < 1e-12);
        assert!((m.width - 3.0 / 2.5).abs() < 1e-12);
        assert_eq!(m.max_level, 4);
    }

    #[test]
    fn levels_take_longest_path() {
        // 0->2 and 0->1->2: level(0) must follow the longer route.
        let g = Graph::from_arcs(3, [(0, 2), (0, 1), (1, 2)]);
        assert_eq!(node_levels(&g), vec![3, 2, 1]);
    }

    #[test]
    fn theorem_1_height_invariant() {
        let g = DagGenerator::new(300, 4.0, 60).seed(21).generate();
        let tr = transitive_reduction(&g);
        let tc = closure_graph(&g);
        let (hg, htr, htc) = (
            RectangleModel::of(&g).height,
            RectangleModel::of(&tr).height,
            RectangleModel::of(&tc).height,
        );
        assert!((hg - htr).abs() < 1e-9, "H(G) = H(TR(G))");
        assert!((hg - htc).abs() < 1e-9, "H(G) = H(TC(G))");
    }

    #[test]
    fn theorem_1_width_ordering() {
        let g = DagGenerator::new(300, 4.0, 60).seed(22).generate();
        let tr = transitive_reduction(&g);
        let tc = closure_graph(&g);
        let (wg, wtr, wtc) = (
            RectangleModel::of(&g).width,
            RectangleModel::of(&tr).width,
            RectangleModel::of(&tc).width,
        );
        assert!(wtr <= wg + 1e-9, "W(TR) <= W(G)");
        assert!(wg <= wtc + 1e-9, "W(G) <= W(TC)");
    }

    #[test]
    fn locality_is_nonnegative_and_irredundant_is_lower() {
        // Locality-2000 graphs have long shortcut arcs that marking avoids.
        let g = DagGenerator::new(500, 5.0, 500).seed(3).generate();
        let s = locality(&g);
        assert!(s.avg_all >= 1.0);
        assert!(s.avg_irredundant >= 1.0);
        assert!(
            s.avg_irredundant <= s.avg_all,
            "irredundant {} vs all {}",
            s.avg_irredundant,
            s.avg_all
        );
    }

    #[test]
    fn empty_and_arcless_graphs() {
        let e = Graph::empty(0);
        let m = RectangleModel::of(&e);
        assert_eq!(m.height, 0.0);
        assert_eq!(m.width, 0.0);
        let iso = Graph::empty(5);
        let m = RectangleModel::of(&iso);
        assert!((m.height - 1.0).abs() < 1e-12);
        assert_eq!(m.width, 0.0);
        let s = locality(&iso);
        assert_eq!(s.avg_all, 0.0);
    }

    #[test]
    fn deeper_graphs_have_greater_height() {
        // The paper observes H grows with F and shrinks with l.
        let shallow = DagGenerator::new(1000, 2.0, 1000).seed(1).generate();
        let deep = DagGenerator::new(1000, 20.0, 1000).seed(1).generate();
        assert!(RectangleModel::of(&deep).height > RectangleModel::of(&shallow).height);
    }
}
