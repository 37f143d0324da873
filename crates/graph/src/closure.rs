//! In-memory reference closures: oracles for the disk-based algorithms.
//!
//! Three classic memory-resident algorithms, referenced by the paper's
//! related-work survey (Warshall \[27\], Warren \[26\]) plus a per-node DFS.
//! All return a [`BitMatrix`] of the transitive closure. The disk-based
//! algorithms in `tc-core` are validated against these in every
//! integration test; they also supply Table 2's `|TC(G)|` column.
//!
//! [`dfs_closure`] is also a producer: its reverse-topological pass
//! seeds the maintained closure (`tc_core::DynamicClosure::build` reads
//! its rows off into the closure file). [`successors_of`] and
//! [`ptc_answer`] stay the independent oracles the tests hold that
//! closure to: one plain DFS per source, sharing no code with the pass.

use crate::bitmat::BitMatrix;
use crate::graph::{Graph, NodeId};
use crate::topo::reverse_topological_order;

/// Transitive closure by DFS from every node.
///
/// On DAGs this runs in reverse topological order, reusing completed
/// successor rows (each node ORs its children's rows) — the in-memory
/// analogue of BTC's immediate successor optimization. On cyclic graphs
/// it falls back to plain per-node DFS.
pub fn dfs_closure(g: &Graph) -> BitMatrix {
    let n = g.n();
    let mut tc = BitMatrix::new(n);
    if let Some(order) = reverse_topological_order(g) {
        for &u in &order {
            for &v in g.children(u) {
                tc.set(u, v);
                tc.or_row_into(v, u);
            }
        }
    } else {
        let mut stack: Vec<NodeId> = Vec::new();
        let mut seen = vec![false; n];
        for s in 0..n as NodeId {
            seen.iter_mut().for_each(|b| *b = false);
            stack.extend(g.children(s).iter().copied());
            while let Some(v) = stack.pop() {
                if seen[v as usize] {
                    continue;
                }
                seen[v as usize] = true;
                tc.set(s, v);
                stack.extend(g.children(v).iter().copied());
            }
        }
    }
    tc
}

/// Warshall's algorithm \[27\]: the classic `k, i, j` triple loop on the
/// adjacency bit matrix.
pub fn warshall(g: &Graph) -> BitMatrix {
    let n = g.n();
    let mut m = BitMatrix::from_graph(g);
    for k in 0..n as NodeId {
        for i in 0..n as NodeId {
            if m.get(i, k) {
                m.or_row_into(k, i);
            }
        }
    }
    // Warshall computes reflexive reachability along cycles; the study's
    // closures are irreflexive only where no cycle exists, and its graphs
    // are DAGs. Leave the matrix as computed (no (i,i) bits arise on DAGs).
    m
}

/// Warren's modification of Warshall \[26\]: two passes over the rows, each
/// examining only the triangular half that can still change, giving much
/// better row locality.
pub fn warren(g: &Graph) -> BitMatrix {
    let n = g.n();
    let mut m = BitMatrix::from_graph(g);
    // Pass 1: below-diagonal predecessors.
    for i in 1..n as NodeId {
        for k in 0..i {
            if m.get(i, k) {
                m.or_row_into(k, i);
            }
        }
    }
    // Pass 2: above-diagonal predecessors.
    for i in 0..n as NodeId {
        for k in (i + 1)..n as NodeId {
            if m.get(i, k) {
                m.or_row_into(k, i);
            }
        }
    }
    m
}

/// Successor set of a single source by DFS (oracle for PTC queries).
pub fn successors_of(g: &Graph, s: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.n()];
    let mut stack: Vec<NodeId> = g.children(s).to_vec();
    let mut out = Vec::new();
    while let Some(v) = stack.pop() {
        if seen[v as usize] {
            continue;
        }
        seen[v as usize] = true;
        out.push(v);
        stack.extend(g.children(v).iter().copied());
    }
    out.sort_unstable();
    out
}

/// All `(s, x)` pairs with `s` in `sources` and `x` reachable from `s`
/// (the answer of a partial-transitive-closure query), sorted.
pub fn ptc_answer(g: &Graph, sources: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    for &s in sources {
        for x in successors_of(g, s) {
            out.push((s, x));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_det::check::{self, Checker};
    use tc_det::{require_eq, Rng};

    /// Node counts on and around the word boundaries of a row.
    const WIDTHS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];

    /// A DAG drawn as node count, pairs of positions in a hidden
    /// topological order (with a chain through every position when the
    /// flag is set) and the seed of the permutation naming the nodes.
    type Dag = (usize, bool, Vec<(u32, u32)>, u64);

    fn dag(rng: &mut Rng) -> Dag {
        let n = match rng.random_range(0..12usize) {
            k @ 0..=7 => WIDTHS[k],
            _ => rng.random_range(2..301usize),
        };
        let pairs = check::vec_of(rng, 0..2 * n + 1, |r| {
            (r.random_range(0..n as u32), r.random_range(0..n as u32))
        });
        (n, rng.random_bool(0.3), pairs, rng.next_u64())
    }

    /// Each pair points from the lower position to the higher, and the
    /// ids are permuted, so id order is not a topological order.
    fn graph_of(&(n, chain, ref pairs, seed): &Dag) -> Graph {
        let mut label: Vec<NodeId> = (0..n as NodeId).collect();
        Rng::from_seed(seed).shuffle(&mut label);
        let chain = (1..n as u32).filter(|_| chain).map(|v| (v - 1, v));
        let arcs = pairs.iter().map(|&(a, b)| (a.min(b), a.max(b)));
        let arcs = chain.chain(arcs).filter(|&(a, b)| a != b);
        Graph::from_arcs(n, arcs.map(|(a, b)| (label[a as usize], label[b as usize])))
    }

    /// The reverse-topological pass seeds the maintained closure, so each
    /// of its rows must be the plain per-source DFS's.
    #[test]
    fn dfs_closure_rows_match_per_source_dfs() {
        Checker::new("dfs_closure_rows_match_per_source_dfs").run(
            dag,
            |(n, chain, pairs, seed)| {
                let mut out: Vec<Dag> = check::shrink_vec(pairs)
                    .into_iter()
                    .map(|p| (*n, *chain, p, *seed))
                    .collect();
                if *chain {
                    out.push((*n, false, pairs.clone(), *seed));
                }
                out
            },
            |d| {
                let g = graph_of(d);
                let tc = dfs_closure(&g);
                require_eq!(tc.n(), g.n());
                let mut pairs = 0;
                for s in 0..g.n() as NodeId {
                    let want = successors_of(&g, s);
                    pairs += want.len();
                    require_eq!(tc.row_ones(s), want, "row {s}");
                }
                require_eq!(tc.pair_count(), pairs);
                Ok(())
            },
        );
    }

    fn diamond() -> Graph {
        // 0 -> {1,2} -> 3
        Graph::from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn dfs_closure_diamond() {
        let tc = dfs_closure(&diamond());
        assert_eq!(tc.row_ones(0), vec![1, 2, 3]);
        assert_eq!(tc.row_ones(1), vec![3]);
        assert_eq!(tc.row_ones(3), Vec::<NodeId>::new());
        assert_eq!(tc.pair_count(), 5);
    }

    #[test]
    fn all_three_agree_on_dags() {
        let g = Graph::from_arcs(
            8,
            [
                (0, 1),
                (0, 4),
                (1, 2),
                (2, 3),
                (4, 5),
                (5, 3),
                (1, 5),
                (6, 7),
            ],
        );
        let a = dfs_closure(&g);
        let b = warshall(&g);
        let c = warren(&g);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn warshall_handles_cycles() {
        let g = Graph::from_arcs(3, [(0, 1), (1, 0), (1, 2)]);
        let m = warshall(&g);
        assert!(m.get(0, 0), "cycle makes 0 reach itself");
        assert!(m.get(0, 2) && m.get(1, 2));
        let d = dfs_closure(&g);
        assert_eq!(m, d, "cyclic fallback DFS agrees with Warshall");
    }

    #[test]
    fn successors_and_ptc() {
        let g = diamond();
        assert_eq!(successors_of(&g, 0), vec![1, 2, 3]);
        assert_eq!(successors_of(&g, 3), Vec::<NodeId>::new());
        assert_eq!(ptc_answer(&g, &[1, 2]), vec![(1, 3), (2, 3)]);
        // Duplicate sources collapse.
        assert_eq!(ptc_answer(&g, &[1, 1]), vec![(1, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        assert_eq!(dfs_closure(&g).pair_count(), 0);
        assert_eq!(warshall(&g).pair_count(), 0);
        assert_eq!(warren(&g).pair_count(), 0);
    }
}
