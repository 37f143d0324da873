//! Concurrent-chain decomposition of a DAG (Kritikakis & Tollis).
//!
//! A *chain* is a path of the DAG; a chain decomposition is a partition
//! of the nodes into k chains. Processing nodes in topological order and
//! appending each node to a chain whose current tail is one of its
//! parents (opening a new chain when no tail qualifies) builds all
//! chains concurrently in a single pass — the "concurrent chains"
//! construction. The resulting k is the index's width parameter: the
//! interval-label index costs O(k·n) space and O(k) per reach query, so
//! a small k (a *narrow* DAG, exactly the rectangle model's low-`W`
//! regime) is where the index wins.

use tc_graph::{topological_order, Graph, NodeId};
use tc_trace::{Event, Tracer};

use crate::index::ReachMeter;

/// Marker for "not on any chain yet" while the chains are built.
const NO_POS: u32 = u32::MAX;

/// A partition of a DAG's nodes into k chains (paths), with per-node
/// chain membership and position.
#[derive(Clone, Debug)]
pub struct ChainDecomposition {
    /// `chains[c]` lists the nodes of chain `c` in path (topological)
    /// order. Every consecutive pair is an arc of the DAG.
    pub chains: Vec<Vec<NodeId>>,
    /// `chain_of[v]` is the chain holding node `v`.
    pub chain_of: Vec<u32>,
    /// `pos_of[v]` is `v`'s position on its chain.
    pub pos_of: Vec<u32>,
}

impl ChainDecomposition {
    /// Decomposes `dag` into concurrent chains, charging each parent-tail
    /// probe through `meter` and emitting one
    /// [`Event::ChainAssigned`] per node plus a final
    /// [`Event::ChainsBuilt`] through `tracer`.
    ///
    /// `None` if `dag` is cyclic (nothing is charged or emitted) —
    /// condense first; the index builder does this for you.
    pub fn of<M: ReachMeter>(
        dag: &Graph,
        tracer: &Tracer,
        meter: &mut M,
    ) -> Option<ChainDecomposition> {
        let n = dag.n();
        let order = topological_order(dag)?;
        let parents = dag.reversed();
        let mut chains: Vec<Vec<NodeId>> = Vec::new();
        let mut chain_of = vec![NO_POS; n];
        let mut pos_of = vec![NO_POS; n];
        // Chain currently ending at a node, if that node is a tail.
        let mut tail_chain = vec![NO_POS; n];
        for &v in &order {
            // Append to the lowest-numbered chain whose tail is a parent
            // of v (lowest for determinism); otherwise open a new chain.
            let mut picked = NO_POS;
            let mut picked_parent = 0;
            for &u in parents.children(v) {
                meter.arc_scanned();
                let c = tail_chain[u as usize];
                if c < picked {
                    picked = c;
                    picked_parent = u;
                }
            }
            let c = if picked == NO_POS {
                chains.push(Vec::new());
                (chains.len() - 1) as u32
            } else {
                tail_chain[picked_parent as usize] = NO_POS;
                picked
            };
            let pos = chains[c as usize].len() as u32;
            chains[c as usize].push(v);
            chain_of[v as usize] = c;
            pos_of[v as usize] = pos;
            tail_chain[v as usize] = c;
            tracer.emit(Event::ChainAssigned {
                comp: v,
                chain: c,
                pos,
            });
        }
        tracer.emit(Event::ChainsBuilt {
            chains: chains.len() as u64,
            components: n as u64,
        });
        Some(ChainDecomposition {
            chains,
            chain_of,
            pos_of,
        })
    }

    /// Number of chains — the width parameter k.
    pub fn width(&self) -> usize {
        self.chains.len()
    }

    /// The longest chain's length (0 with no chains). Every position lies
    /// below it, so the label index stores it as "reaches nothing on
    /// this chain".
    pub fn longest(&self) -> u32 {
        self.chains
            .iter()
            .map(|c| c.len() as u32)
            .max()
            .unwrap_or(0)
    }

    /// Total nodes across all chains (equals the DAG's node count).
    pub fn node_count(&self) -> usize {
        self.chains.iter().map(|c| c.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::NullMeter;

    fn decompose(g: &Graph) -> ChainDecomposition {
        ChainDecomposition::of(g, &Tracer::disabled(), &mut NullMeter).expect("a DAG")
    }

    #[test]
    fn path_is_one_chain() {
        let g = Graph::from_arcs(4, [(0, 1), (1, 2), (2, 3)]);
        let cd = decompose(&g);
        assert_eq!(cd.width(), 1);
        assert_eq!(cd.chains[0], vec![0, 1, 2, 3]);
        assert_eq!(cd.pos_of, vec![0, 1, 2, 3]);
    }

    #[test]
    fn antichain_is_n_chains() {
        let g = Graph::empty(5);
        let cd = decompose(&g);
        assert_eq!(cd.width(), 5);
        assert!(cd.chains.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn chains_are_paths_and_partition_nodes() {
        let g = Graph::from_arcs(7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5), (5, 6)]);
        let cd = decompose(&g);
        assert_eq!(cd.node_count(), 7);
        let mut seen = vec![false; 7];
        for (c, chain) in cd.chains.iter().enumerate() {
            for w in chain.windows(2) {
                assert!(g.has_arc(w[0], w[1]), "chain {c} is not a path");
            }
            for (i, &v) in chain.iter().enumerate() {
                assert!(!seen[v as usize], "node {v} on two chains");
                seen[v as usize] = true;
                assert_eq!(cd.chain_of[v as usize], c as u32);
                assert_eq!(cd.pos_of[v as usize], i as u32);
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn cyclic_input_is_refused() {
        let g = Graph::from_arcs(2, [(0, 1), (1, 0)]);
        assert!(ChainDecomposition::of(&g, &Tracer::disabled(), &mut NullMeter).is_none());
    }
}
