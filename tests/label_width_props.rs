//! The labels file at the edges of its value widths.
//!
//! A label entry is a chain position or, for "reaches nothing on this
//! chain", the longest chain's length `l`, so the labels file declares
//! `l + 1` as its bound and stores each entry in the fewest whole bytes
//! that hold `l`. Graphs whose longest chain is 254, 255, 256, 65,535
//! or 65,536 put that bound on either side of the one-, two- and
//! three-byte edges. Each graph is a path of `l` nodes with random
//! forward side arcs, beside a random DAG of fewer than 48 nodes, node
//! ids permuted. The path is one chain: each path node's parents lie on
//! the path, and the first of its predecessor's children to be placed
//! is the node itself, so the predecessor is still a tail then. The
//! other DAG has too few nodes for a longer chain.
//!
//! Per graph:
//! * the file's pages, decoded here at the expected width, hold the
//!   label matrix chain-major (entry `L[a][c]` at value `c·N + a`);
//! * `reach`, persisted and in memory, equals a per-source DFS over a
//!   pool holding the path's last nodes and nodes off the path, so
//!   "no label" meets the last position;
//! * `label_rows` equals `LabelMatrix::row` for every component.

use tc_study::det::check::{self, Checker};
use tc_study::det::{require, require_eq, Rng};
use tc_study::graph::{closure, Graph, NodeId};
use tc_study::reach::{NullMeter, ReachIndex};
use tc_study::storage::{DiskSim, PageStore, Pager, PAGE_SIZE};
use tc_study::trace::Tracer;

/// `(longest chain, bytes a label entry takes)`.
const EDGES: [(usize, usize); 5] = [(254, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 3)];

/// A path of `len` nodes with random forward side arcs, and a random DAG
/// of fewer than 48 nodes beside it, ids permuted. Returns the graph and
/// its node ids, the path's first in path order.
fn path_beside_a_dag(len: usize, rng: &mut Rng) -> (Graph, Vec<NodeId>) {
    let extra = rng.random_range(0..48usize);
    let mut ids: Vec<NodeId> = (0..(len + extra) as NodeId).collect();
    rng.shuffle(&mut ids);
    let (path, others) = ids.split_at(len);
    let mut arcs: Vec<(NodeId, NodeId)> = path.windows(2).map(|w| (w[0], w[1])).collect();
    for _ in 0..rng.random_range(0..64usize) {
        let i = rng.random_range(0..len - 2);
        let j = rng.random_range(i + 2..len);
        arcs.push((path[i], path[j]));
    }
    if extra > 1 {
        for _ in 0..rng.random_range(0..3 * extra) {
            let i = rng.random_range(0..extra - 1);
            let j = rng.random_range(i + 1..extra);
            arcs.push((others[i], others[j]));
        }
    }
    (Graph::from_arcs(len + extra, arcs), ids)
}

/// Slot `i` of a page whose values take `width` bytes: the low `width`
/// bytes of a little-endian `u32`.
fn slot(bytes: &[u8], width: usize, i: usize) -> u32 {
    let mut le = [0u8; 4];
    le[..width].copy_from_slice(&bytes[i * width..(i + 1) * width]);
    u32::from_le_bytes(le)
}

#[test]
fn label_file_width_follows_the_longest_chain_at_every_edge() {
    Checker::new("label_file_width_follows_the_longest_chain_at_every_edge")
        .cases(10)
        .run(
            |rng| (rng.random_range(0..EDGES.len()), rng.next_u64()),
            check::shrink_none,
            |&(edge, seed)| {
                let (len, width) = EDGES[edge];
                let mut rng = Rng::from_seed(seed);
                let (g, ids) = path_beside_a_dag(len, &mut rng);
                let mut disk = DiskSim::new();
                let idx = ReachIndex::build(&mut disk, &g, &Tracer::disabled(), &mut NullMeter)
                    .map_err(|e| e.to_string())?;
                require_eq!(idx.decomposition().longest() as usize, len, "longest chain");
                let (n, k) = (idx.condensation().component_count(), idx.width());

                // The file's bytes, decoded at the width its bound needs.
                let per_page = PAGE_SIZE / width;
                let pages = disk
                    .file_pages(idx.files()[1])
                    .map_err(|e| e.to_string())?
                    .to_vec();
                require_eq!(pages.len(), (n * k).div_ceil(per_page), "label pages");
                for (p, &pid) in pages.iter().enumerate() {
                    let bytes = disk
                        .with_page(pid, |page| page.bytes().to_vec())
                        .map_err(|e| e.to_string())?;
                    for i in 0..per_page.min(n * k - p * per_page) {
                        let at = p * per_page + i;
                        let (c, a) = (at / n, at % n);
                        require_eq!(
                            slot(&bytes, width, i),
                            idx.labels().row(a as NodeId)[c],
                            "L[{a}][{c}] at value {at}"
                        );
                    }
                }

                // reach over a pool holding the path's ends and some of
                // the nodes off it, which reach nothing on the path.
                let mut pool = vec![ids[0], ids[len - 2], ids[len - 1]];
                pool.extend(ids[len..].iter().take(3));
                pool.extend((0..8).map(|_| ids[rng.random_range(0..ids.len())]));
                for &u in &pool {
                    let reached = closure::successors_of(&g, u);
                    for &v in &pool {
                        let expect = reached.binary_search(&v).is_ok();
                        let got = idx.reach(&mut disk, u, v).map_err(|e| e.to_string())?;
                        require_eq!(got, expect, "reach({u}, {v})");
                        require_eq!(idx.reach_mem(u, v), expect, "reach_mem({u}, {v})");
                    }
                }

                // label_rows against the matrix, every component.
                let all: Vec<NodeId> = (0..n as NodeId).collect();
                let mut rows = Vec::new();
                idx.label_rows(&mut disk, &all, &mut NullMeter, &mut rows)
                    .map_err(|e| e.to_string())?;
                require_eq!(rows.len(), n * k, "label_rows length");
                for (a, row) in rows.chunks_exact(k).enumerate() {
                    require!(row == idx.labels().row(a as NodeId), "row {a}");
                }
                Ok(())
            },
        );
}
