//! Strongly connected components and the condensation graph.
//!
//! The study restricts its workloads to acyclic graphs, "based on the
//! well known observation that, given a cyclic graph, an acyclic
//! condensation graph (in which strongly connected components are merged)
//! can be computed cheaply in comparison to the cost of computing the
//! closure of the condensation graph" (§1, citing Yannakakis \[28\]). This
//! module provides that preprocessing step: an iterative Tarjan SCC and
//! the condensation, with mappings to translate closure results back to
//! the original nodes.

use crate::graph::{Graph, NodeId};

/// Result of condensing a graph: the acyclic component graph plus the
/// node↔component mappings.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// The condensation DAG; node `c` represents component `c`.
    pub graph: Graph,
    /// `component[v]` is the component id of original node `v`.
    pub component: Vec<NodeId>,
    /// `members[c]` lists the original nodes of component `c`, ascending.
    pub members: Vec<Vec<NodeId>>,
}

impl Condensation {
    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.members.len()
    }

    /// Whether the members of component `c` reach themselves. The graph
    /// has no self-loops, so a node lies on a cycle iff its component has
    /// more than one member, and then it reaches every member of it,
    /// itself included; a node alone in its component reaches none.
    pub fn is_cyclic(&self, c: NodeId) -> bool {
        self.members[c as usize].len() > 1
    }
}

/// Computes strongly connected components with an iterative Tarjan
/// traversal and returns the condensation.
///
/// Component ids are assigned in reverse Tarjan completion order, which
/// is a topological order of the condensation (ancestors get smaller
/// ids) — convenient because the rest of the pipeline assumes generator
/// graphs whose node order is topological.
pub fn condensation(g: &Graph) -> Condensation {
    let n = g.n();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut comp_of = vec![UNVISITED; n];
    let mut counter: u32 = 0;
    let mut comp_counter: u32 = 0;

    // Iterative Tarjan: (node, child cursor) frames.
    let mut frames: Vec<(NodeId, usize)> = Vec::new();
    for start in 0..n as NodeId {
        if index[start as usize] != UNVISITED {
            continue;
        }
        frames.push((start, 0));
        index[start as usize] = counter;
        low[start as usize] = counter;
        counter += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor < g.out_degree(v) {
                let w = g.children(v)[*cursor];
                *cursor += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = counter;
                    low[w as usize] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    low[parent as usize] = low[parent as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    // v is an SCC root; pop its component.
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = comp_counter;
                        if w == v {
                            break;
                        }
                    }
                    comp_counter += 1;
                }
            }
        }
    }

    // Tarjan emits components in reverse topological order; flip ids so
    // smaller id = earlier in topological order.
    let ncomp = comp_counter as usize;
    let component: Vec<NodeId> = comp_of
        .iter()
        .map(|&c| (ncomp as u32 - 1 - c) as NodeId)
        .collect();

    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); ncomp];
    for (v, &c) in component.iter().enumerate() {
        members[c as usize].push(v as NodeId);
    }

    let arcs = g
        .arcs()
        .map(|(u, v)| (component[u as usize], component[v as usize]))
        .filter(|(a, b)| a != b);
    let graph = Graph::from_arcs(ncomp, arcs);

    Condensation {
        graph,
        component,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::dfs_closure;

    #[test]
    fn acyclic_graph_is_its_own_condensation() {
        let g = Graph::from_arcs(4, [(0, 1), (1, 2), (0, 3)]);
        let c = condensation(&g);
        assert_eq!(c.component_count(), 4);
        assert!(c.graph.is_acyclic());
        assert_eq!(c.graph.arc_count(), 3);
    }

    #[test]
    fn collapses_a_cycle() {
        // 0 -> 1 -> 2 -> 0 cycle, plus 2 -> 3.
        let g = Graph::from_arcs(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = condensation(&g);
        assert_eq!(c.component_count(), 2);
        assert!(c.graph.is_acyclic());
        let cyc = c.component[0];
        assert_eq!(c.component[1], cyc);
        assert_eq!(c.component[2], cyc);
        assert_ne!(c.component[3], cyc);
        assert_eq!(c.members[cyc as usize], vec![0, 1, 2]);
        assert!(c.is_cyclic(cyc));
        assert!(!c.is_cyclic(c.component[3]));
    }

    #[test]
    fn component_ids_are_topological() {
        let g = Graph::from_arcs(6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 5)]);
        let c = condensation(&g);
        for (a, b) in c.graph.arcs() {
            assert!(a < b, "condensation arc ({a},{b}) violates topo ids");
        }
    }

    #[test]
    fn closure_via_condensation_matches_direct() {
        let g = crate::gen::cyclic(60, 2.0, 15, 8, 42);
        let direct = dfs_closure(&g);
        let c = condensation(&g);
        let ctc = dfs_closure(&c.graph);
        // Reconstruct the original closure from the condensation closure.
        let mut rebuilt = crate::bitmat::BitMatrix::new(g.n());
        for a in 0..c.component_count() as NodeId {
            let reached = ctc
                .row_ones(a)
                .into_iter()
                .chain(c.is_cyclic(a).then_some(a));
            for b in reached {
                for &u in &c.members[a as usize] {
                    for &v in &c.members[b as usize] {
                        rebuilt.set(u, v);
                    }
                }
            }
        }
        assert_eq!(rebuilt, direct);
    }
}
