//! The magic subgraph of a selection query.
//!
//! For a partial-transitive-closure query with source set `S`, only "the
//! nodes and edges reachable from the specified source nodes" matter; the
//! paper calls this the *magic* subgraph (after the magic-sets
//! literature) and identifies it during the restructuring phase (§2, §4).
//!
//! This module gives the in-memory construction used by statistics, tests
//! and oracles. The engine's restructuring phase performs the same
//! traversal against the paged relation, charging index and page I/O.

use crate::graph::{Graph, NodeId};

/// The magic subgraph of a query: the sub-DAG induced by the nodes
/// reachable from the source set (sources included).
#[derive(Clone, Debug)]
pub struct MagicGraph {
    /// The induced subgraph over the *original* node ids (non-magic nodes
    /// simply have no arcs and are not listed in [`MagicGraph::nodes`]).
    pub graph: Graph,
    /// The magic nodes, ascending.
    pub nodes: Vec<NodeId>,
    /// Membership mask, indexed by original node id.
    pub mask: Vec<bool>,
    /// The query's source nodes (deduplicated, ascending).
    pub sources: Vec<NodeId>,
}

impl MagicGraph {
    /// Computes the magic subgraph of `g` for `sources` by forward
    /// traversal.
    pub fn of(g: &Graph, sources: &[NodeId]) -> MagicGraph {
        let n = g.n();
        let mut mask = vec![false; n];
        let mut stack: Vec<NodeId> = Vec::new();
        let mut srcs: Vec<NodeId> = sources.to_vec();
        srcs.sort_unstable();
        srcs.dedup();
        for &s in &srcs {
            assert!((s as usize) < n, "source {s} out of range");
            if !mask[s as usize] {
                mask[s as usize] = true;
                stack.push(s);
            }
        }
        let mut arcs = Vec::new();
        while let Some(u) = stack.pop() {
            for &v in g.children(u) {
                arcs.push((u, v));
                if !mask[v as usize] {
                    mask[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        let nodes: Vec<NodeId> = (0..n as NodeId).filter(|&v| mask[v as usize]).collect();
        MagicGraph {
            graph: Graph::from_arcs(n, arcs),
            nodes,
            mask,
            sources: srcs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::{dfs_closure, ptc_answer};
    use crate::gen::DagGenerator;

    #[test]
    fn magic_of_single_source() {
        // 0 -> 1 -> 2, 3 -> 4 (disconnected from 0's region).
        let g = Graph::from_arcs(5, [(0, 1), (1, 2), (3, 4)]);
        let m = MagicGraph::of(&g, &[0]);
        assert_eq!(m.nodes, vec![0, 1, 2]);
        assert!(m.mask[1] && !m.mask[3]);
        assert_eq!(m.graph.arc_count(), 2);
    }

    #[test]
    fn sources_dedup() {
        let g = Graph::from_arcs(3, [(0, 1)]);
        let m = MagicGraph::of(&g, &[0, 0, 1]);
        assert_eq!(m.sources, vec![0, 1]);
        assert_eq!(m.nodes, vec![0, 1]);
    }

    #[test]
    fn full_source_set_gives_whole_reachable_graph() {
        let g = DagGenerator::new(200, 3.0, 50).seed(7).generate();
        let all: Vec<NodeId> = (0..200).collect();
        let m = MagicGraph::of(&g, &all);
        assert_eq!(m.nodes.len(), 200);
        assert_eq!(m.graph.arc_count(), g.arc_count());
    }

    #[test]
    fn ptc_on_magic_equals_ptc_on_full() {
        let g = DagGenerator::new(300, 4.0, 80).seed(13).generate();
        let sources = vec![5, 17, 130];
        let m = MagicGraph::of(&g, &sources);
        assert_eq!(ptc_answer(&m.graph, &sources), ptc_answer(&g, &sources));
    }

    #[test]
    fn magic_closure_subset_of_full_closure() {
        let g = DagGenerator::new(150, 3.0, 40).seed(3).generate();
        let m = MagicGraph::of(&g, &[2, 9]);
        let full = dfs_closure(&g);
        let magic = dfs_closure(&m.graph);
        for u in &m.nodes {
            for v in magic.row_ones(*u) {
                assert!(full.get(*u, v));
            }
            // For magic nodes the successor sets must be *equal*: the
            // magic graph contains everything reachable from them.
            assert_eq!(magic.row_ones(*u), full.row_ones(*u));
        }
    }
}
