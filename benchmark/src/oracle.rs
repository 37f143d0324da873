//! The in-memory oracle for served replies: what `reach`, `ptc` and
//! `path` must answer on a graph, from `tc_graph::closure` alone.

use tc_study::graph::{closure, BitMatrix, Graph, NodeId};
use tc_study::serve::{Reply, Request};

pub struct ReplyOracle {
    graph: Graph,
    closure: BitMatrix,
}

impl ReplyOracle {
    pub fn new(graph: &Graph) -> ReplyOracle {
        ReplyOracle {
            closure: closure::dfs_closure(graph),
            graph: graph.clone(),
        }
    }

    pub fn closure(&self) -> &BitMatrix {
        &self.closure
    }

    /// The one correct reply. `path` is deterministic in the program (at
    /// each node, the smallest child that is or still reaches the
    /// target), so the oracle can name the exact hops.
    pub fn reply(&self, req: &Request) -> Reply {
        match *req {
            Request::Reach { u, v } => Reply::Reach(self.closure.get(u, v)),
            Request::Ptc { u } => Reply::Ptc(self.closure.row_ones(u)),
            Request::Path { u, v } => Reply::Path(self.path(u, v)),
        }
    }

    fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        if u == v || !self.closure.get(u, v) {
            return None;
        }
        let mut hops = vec![u];
        let mut cur = u;
        loop {
            let next = self
                .graph
                .children(cur)
                .iter()
                .copied()
                .find(|&c| c == v || self.closure.get(c, v))?;
            hops.push(next);
            if next == v {
                return Some(hops);
            }
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_on_a_diamond() {
        // 0 -> {1, 2} -> 3, and 2 -> 4
        let g = Graph::from_arcs(5, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4)]);
        let o = ReplyOracle::new(&g);
        assert_eq!(o.reply(&Request::Reach { u: 0, v: 3 }), Reply::Reach(true));
        assert_eq!(o.reply(&Request::Reach { u: 3, v: 0 }), Reply::Reach(false));
        assert_eq!(o.reply(&Request::Ptc { u: 2 }), Reply::Ptc(vec![3, 4]));
        assert_eq!(
            o.reply(&Request::Path { u: 0, v: 3 }),
            Reply::Path(Some(vec![0, 1, 3]))
        );
        assert_eq!(
            o.reply(&Request::Path { u: 0, v: 4 }),
            Reply::Path(Some(vec![0, 2, 4]))
        );
        assert_eq!(o.reply(&Request::Path { u: 1, v: 4 }), Reply::Path(None));
        assert_eq!(o.reply(&Request::Path { u: 1, v: 1 }), Reply::Path(None));
    }
}
