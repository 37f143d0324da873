//! Dense bit matrix used by the in-memory reference closures.
//!
//! A `BitMatrix` with `n` rows of `n` bits represents a binary relation
//! over the study's node ids. At the paper's scale (n = 2000) a full
//! matrix is 500 KB — trivially memory-resident, which is exactly why the
//! paper's *disk-based* algorithms are interesting and why this type is
//! only an oracle, not a competitor.

use crate::graph::{Graph, NodeId};

/// A square bit matrix over `n` nodes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero `n × n` matrix.
    pub fn new(n: usize) -> BitMatrix {
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            n,
            words_per_row,
            bits: vec![0u64; n * words_per_row],
        }
    }

    /// Builds the adjacency matrix of `g`.
    pub fn from_graph(g: &Graph) -> BitMatrix {
        let mut m = BitMatrix::new(g.n());
        for (u, v) in g.arcs() {
            m.set(u, v);
        }
        m
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sets bit `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: NodeId, j: NodeId) {
        let (i, j) = (i as usize, j as usize);
        debug_assert!(i < self.n && j < self.n);
        self.bits[i * self.words_per_row + j / 64] |= 1u64 << (j % 64);
    }

    /// Tests bit `(i, j)`.
    #[inline]
    pub fn get(&self, i: NodeId, j: NodeId) -> bool {
        let (i, j) = (i as usize, j as usize);
        debug_assert!(i < self.n && j < self.n);
        self.bits[i * self.words_per_row + j / 64] & (1u64 << (j % 64)) != 0
    }

    /// ORs row `src` into row `dst` (`dst |= src`). No-op when
    /// `dst == src`.
    pub fn or_row_into(&mut self, src: NodeId, dst: NodeId) {
        let (src, dst) = (src as usize, dst as usize);
        if src == dst {
            return;
        }
        let w = self.words_per_row;
        let (a, b) = (src * w, dst * w);
        // Split borrows via split_at_mut on the underlying vector.
        if a < b {
            let (lo, hi) = self.bits.split_at_mut(b);
            let srow = &lo[a..a + w];
            let drow = &mut hi[..w];
            for k in 0..w {
                drow[k] |= srow[k];
            }
        } else {
            let (lo, hi) = self.bits.split_at_mut(a);
            let drow = &mut lo[b..b + w];
            let srow = &hi[..w];
            for k in 0..w {
                drow[k] |= srow[k];
            }
        }
    }

    /// The set node ids of row `i`, ascending.
    pub fn row_ones(&self, i: NodeId) -> Vec<NodeId> {
        let i = i as usize;
        let mut out = Vec::new();
        for (wi, &word) in self.bits[i * self.words_per_row..(i + 1) * self.words_per_row]
            .iter()
            .enumerate()
        {
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                out.push((wi * 64 + b) as NodeId);
                w &= w - 1;
            }
        }
        out
    }

    /// Total number of set bits (the paper's `|TC(G)|` when the matrix is
    /// a closure).
    pub fn pair_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip_across_word_boundaries() {
        let mut m = BitMatrix::new(130);
        m.set(0, 0);
        m.set(0, 63);
        m.set(0, 64);
        m.set(129, 129);
        assert!(m.get(0, 0) && m.get(0, 63) && m.get(0, 64) && m.get(129, 129));
        assert!(!m.get(0, 65));
        assert_eq!(m.pair_count(), 4);
    }

    #[test]
    fn or_row_into_merges() {
        let mut m = BitMatrix::new(100);
        m.set(1, 5);
        m.set(1, 70);
        m.set(2, 6);
        m.or_row_into(1, 2);
        assert_eq!(m.row_ones(2), vec![5, 6, 70]);
        assert_eq!(m.row_ones(1), vec![5, 70]); // source untouched
                                                // Reverse direction (dst before src in memory).
        m.or_row_into(2, 0);
        assert_eq!(m.row_ones(0), vec![5, 6, 70]);
        // Self-OR is a no-op.
        m.or_row_into(2, 2);
        assert_eq!(m.row_ones(2), vec![5, 6, 70]);
    }

    #[test]
    fn from_graph_matches_arcs() {
        let g = Graph::from_arcs(5, [(0, 1), (3, 4)]);
        let m = BitMatrix::from_graph(&g);
        assert!(m.get(0, 1) && m.get(3, 4));
        assert!(!m.get(1, 0));
        assert_eq!(m.pair_count(), 2);
    }

    #[test]
    fn zero_size() {
        let m = BitMatrix::new(0);
        assert_eq!(m.pair_count(), 0);
    }
}
