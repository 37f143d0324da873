//! Dense bit sets over node ids, the workspace's one: a single row
//! ([`BitRow`]) and the square matrix ([`BitMatrix`]). Bit `v % 64` of
//! word `v / 64` stands for node `v`, and both types run on the same
//! word-slice code: test, set, word-parallel union and the set ids read
//! off ascending ([`Ones`]).
//!
//! A `BitRow` is one set: a row dynamic maintenance writes
//! (`tc_core::closure_file::TupleRows`), a JKB source cover. A
//! `BitMatrix` is `n` contiguous rows of `n` bits, a binary relation:
//! the in-memory reference closures and the answer collector's dense
//! pair set. At the paper's scale (n = 2000) a full matrix is 500 KB —
//! trivially memory-resident, which is exactly why the paper's
//! *disk-based* algorithms are interesting and why the closures here are
//! only oracles, not competitors.

use crate::graph::{Graph, NodeId};

/// Number of words that hold `n` bits.
fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// Tests bit `v` of `words`.
#[inline]
fn test(words: &[u64], v: usize) -> bool {
    words[v / 64] & (1u64 << (v % 64)) != 0
}

/// Sets bit `v` of `words`; returns `true` if it was newly set.
#[inline]
fn set(words: &mut [u64], v: usize) -> bool {
    let word = &mut words[v / 64];
    let bit = 1u64 << (v % 64);
    let fresh = *word & bit == 0;
    *word |= bit;
    fresh
}

/// `dst |= src`, word by word.
#[inline]
fn union(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Number of set bits of `words`.
fn count(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// A fixed-size bit set over node ids: test, set, clear, word-parallel
/// union, and the set ids in ascending order. Two rows over the same `n`
/// are equal when they hold the same ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitRow {
    words: Vec<u64>,
}

impl BitRow {
    /// Creates an empty row over `n` node ids.
    pub fn new(n: usize) -> BitRow {
        BitRow {
            words: vec![0u64; words_for(n)],
        }
    }

    /// Tests bit `v`.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        test(&self.words, v as usize)
    }

    /// Sets bit `v`; returns `true` if it was newly set.
    #[inline]
    pub fn set(&mut self, v: NodeId) -> bool {
        set(&mut self.words, v as usize)
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit that is set in `other`, a row over the same `n`.
    pub fn union_with(&mut self, other: &BitRow) {
        assert_eq!(self.words.len(), other.words.len(), "rows differ in n");
        union(&mut self.words, &other.words);
    }

    /// Makes this row hold exactly the bits of `other`, a row over the
    /// same `n`.
    pub fn copy_from(&mut self, other: &BitRow) {
        self.words.copy_from_slice(&other.words);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        count(&self.words)
    }

    /// The set node ids, ascending.
    pub fn ones(&self) -> Ones<'_> {
        Ones::of(&self.words)
    }
}

/// Ascending iterator over the set bits of a [`BitRow`] or of one
/// [`BitMatrix`] row.
#[derive(Clone, Debug)]
pub struct Ones<'a> {
    words: &'a [u64],
    next_word: usize,
    /// Unvisited bits of word `next_word - 1`.
    current: u64,
}

impl Ones<'_> {
    fn of(words: &[u64]) -> Ones<'_> {
        Ones {
            words,
            next_word: 0,
            current: 0,
        }
    }
}

impl Iterator for Ones<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.current = *self.words.get(self.next_word)?;
            self.next_word += 1;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some((self.next_word as NodeId - 1) * 64 + bit)
    }
}

/// A square bit matrix over `n` nodes, its rows contiguous in one word
/// array.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all-zero `n × n` matrix.
    pub fn new(n: usize) -> BitMatrix {
        BitMatrix {
            n,
            words_per_row: words_for(n),
            bits: vec![0u64; BitMatrix::words(n)],
        }
    }

    /// Number of 64-bit words an `n × n` matrix holds.
    pub fn words(n: usize) -> usize {
        n * words_for(n)
    }

    /// Builds the adjacency matrix of `g`.
    pub(crate) fn from_graph(g: &Graph) -> BitMatrix {
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

    /// Bit `(i, j)`'s index in the word array.
    #[inline]
    fn bit(&self, i: NodeId, j: NodeId) -> usize {
        let (i, j) = (i as usize, j as usize);
        debug_assert!(i < self.n && j < self.n);
        i * self.words_per_row * 64 + j
    }

    /// Sets bit `(i, j)`; returns `true` if it was newly set.
    #[inline]
    pub fn set(&mut self, i: NodeId, j: NodeId) -> bool {
        let bit = self.bit(i, j);
        set(&mut self.bits, bit)
    }

    /// Tests bit `(i, j)`.
    #[inline]
    pub fn get(&self, i: NodeId, j: NodeId) -> bool {
        test(&self.bits, self.bit(i, j))
    }

    /// ORs row `src` into row `dst` (`dst |= src`). No-op when
    /// `dst == src`.
    pub(crate) fn or_row_into(&mut self, src: NodeId, dst: NodeId) {
        if src == dst {
            return;
        }
        let w = self.words_per_row;
        let (lo, hi) = (src.min(dst) as usize, src.max(dst) as usize);
        let (head, tail) = self.bits.split_at_mut(hi * w);
        let (lo_row, hi_row) = (&mut head[lo * w..][..w], &mut tail[..w]);
        let (d, s) = if dst < src {
            (lo_row, &*hi_row)
        } else {
            (hi_row, &*lo_row)
        };
        union(d, s);
    }

    /// The set node ids of row `i`, ascending.
    pub fn ones(&self, i: NodeId) -> Ones<'_> {
        Ones::of(&self.bits[i as usize * self.words_per_row..][..self.words_per_row])
    }

    /// The set node ids of row `i`, ascending, collected.
    pub fn row_ones(&self, i: NodeId) -> Vec<NodeId> {
        self.ones(i).collect()
    }

    /// Total number of set bits (the paper's `|TC(G)|` when the matrix is
    /// a closure).
    pub fn pair_count(&self) -> usize {
        count(&self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tc_det::check::{self, Checker};
    use tc_det::{require, require_eq, Rng};

    /// One step of a bit-set script over two rows and a matrix.
    #[derive(Clone, Debug)]
    enum Op {
        /// Sets an id in row 0 or row 1.
        Set(usize, NodeId),
        /// Clears row 0 or row 1.
        Clear(usize),
        /// Row `k` |= the other row.
        Union(usize),
        /// Row `k` := the other row.
        Copy(usize),
        /// Sets matrix bit `(i, j)`.
        SetPair(NodeId, NodeId),
        /// Matrix row `dst` |= row `src`, as `(src, dst)`.
        OrRow(NodeId, NodeId),
    }

    /// Two rows and an `n × n` matrix, all empty at the start, and the
    /// script run on them.
    #[derive(Clone, Debug)]
    struct Script {
        n: usize,
        ops: Vec<Op>,
    }

    /// Widths on and around the word boundary.
    const WIDTHS: [usize; 7] = [0, 1, 63, 64, 65, 128, 129];

    fn script(rng: &mut Rng) -> Script {
        let n = match rng.random_range(0..10usize) {
            k @ 0..=6 => WIDTHS[k],
            _ => rng.random_range(2..300usize),
        };
        let ops = check::vec_of(rng, 0..150, |r| {
            let k = r.random_range(0..2usize);
            let id = |r: &mut Rng| r.random_range(0..n as NodeId);
            match r.random_range(0..if n == 0 { 3u32 } else { 10 }) {
                0 => Op::Clear(k),
                1 => Op::Union(k),
                2 => Op::Copy(k),
                3..=5 => Op::Set(k, id(r)),
                6..=8 => Op::SetPair(id(r), id(r)),
                _ => Op::OrRow(id(r), id(r)),
            }
        });
        Script { n, ops }
    }

    /// Checks a row against its model.
    fn row_matches(row: &BitRow, model: &BTreeSet<NodeId>, n: usize) -> Result<(), String> {
        require_eq!(
            row.ones().collect::<Vec<_>>(),
            Vec::from_iter(model.iter().copied())
        );
        require_eq!(row.count_ones(), model.len());
        for v in 0..n as NodeId {
            require!(row.contains(v) == model.contains(&v), "contains({v})");
        }
        Ok(())
    }

    /// Checks matrix row `i` against its model.
    fn matrix_row_matches(
        m: &BitMatrix,
        i: NodeId,
        model: &BTreeSet<NodeId>,
    ) -> Result<(), String> {
        let want = Vec::from_iter(model.iter().copied());
        require_eq!(m.ones(i).collect::<Vec<_>>(), want, "ones({i})");
        require_eq!(m.row_ones(i), want, "row_ones({i})");
        for j in 0..m.n() as NodeId {
            require!(m.get(i, j) == model.contains(&j), "get({i}, {j})");
        }
        Ok(())
    }

    /// Runs `s` on two `BitRow`s and a `BitMatrix` beside `BTreeSet`
    /// models, checking each touched set after every step and the whole
    /// matrix at the end.
    fn bit_sets_refine(s: &Script) -> Result<(), String> {
        let n = s.n;
        let mut rows = [BitRow::new(n), BitRow::new(n)];
        let mut models = [BTreeSet::new(), BTreeSet::new()];
        let mut m = BitMatrix::new(n);
        let mut mm = vec![BTreeSet::new(); n];
        require_eq!(m.n(), n);
        for (step, op) in s.ops.iter().enumerate() {
            match *op {
                Op::Set(k, v) => require_eq!(rows[k].set(v), models[k].insert(v), "op {step}"),
                Op::Clear(k) => {
                    rows[k].clear();
                    models[k].clear();
                }
                Op::Union(k) => {
                    let [a, b] = &mut rows;
                    let (dst, src) = if k == 0 { (a, &*b) } else { (b, &*a) };
                    dst.union_with(src);
                    let other = models[1 - k].clone();
                    models[k].extend(other);
                }
                Op::Copy(k) => {
                    let [a, b] = &mut rows;
                    let (dst, src) = if k == 0 { (a, &*b) } else { (b, &*a) };
                    dst.copy_from(src);
                    models[k] = models[1 - k].clone();
                }
                Op::SetPair(i, j) => {
                    require_eq!(m.set(i, j), mm[i as usize].insert(j), "op {step}");
                    matrix_row_matches(&m, i, &mm[i as usize])?;
                }
                Op::OrRow(src, dst) => {
                    m.or_row_into(src, dst);
                    let from = mm[src as usize].clone();
                    mm[dst as usize].extend(from);
                    matrix_row_matches(&m, src, &mm[src as usize])?;
                    matrix_row_matches(&m, dst, &mm[dst as usize])?;
                }
            }
            for (k, (row, model)) in rows.iter().zip(&models).enumerate() {
                row_matches(row, model, n).map_err(|e| format!("row {k}, op {step}: {e}"))?;
            }
            require_eq!(
                rows[0] == rows[1],
                models[0] == models[1],
                "equality after op {step}"
            );
        }
        for (i, model) in mm.iter().enumerate() {
            matrix_row_matches(&m, i as NodeId, model)?;
        }
        require_eq!(m.pair_count(), mm.iter().map(BTreeSet::len).sum::<usize>());
        Ok(())
    }

    /// The worked examples, run through the same property: ids set in
    /// descending order (each twice) and read back ascending; a union
    /// across the word boundary; two rows that differ only in their last
    /// id; a matrix row ORed both ways in memory and into itself.
    fn examples() -> Vec<Script> {
        let mut out = Vec::new();
        for n in [0usize, 1, 63, 64, 65, 200] {
            let ids = (0..n as NodeId).filter(|v| v % 3 != 1).rev();
            let mut ops: Vec<Op> = ids.flat_map(|v| [Op::Set(0, v), Op::Set(0, v)]).collect();
            ops.push(Op::Clear(0));
            out.push(Script { n, ops });
        }
        for n in WIDTHS {
            let within = |ids: &[NodeId]| -> Vec<NodeId> {
                ids.iter().copied().filter(|&v| (v as usize) < n).collect()
            };
            let both = within(&[0, 62, 63, 64, 127, 128]);
            let mut ops: Vec<Op> = within(&[0, 62, 63])
                .into_iter()
                .map(|v| Op::Set(0, v))
                .collect();
            ops.extend(
                within(&[63, 64, 127, 128])
                    .into_iter()
                    .map(|v| Op::Set(1, v)),
            );
            ops.extend([Op::Union(0), Op::Copy(1)]);
            if let Some(last) = (n as NodeId).checked_sub(1) {
                ops.push(Op::Clear(0));
                ops.extend(both.iter().filter(|&&v| v != last).map(|&v| Op::Set(0, v)));
                ops.extend([Op::Copy(1), Op::Set(1, last), Op::Union(1)]);
            }
            ops.extend([Op::Clear(0), Op::Clear(1)]);
            out.push(Script { n, ops });
        }
        let pairs = [
            (0, 0),
            (0, 63),
            (0, 64),
            (129, 129),
            (1, 5),
            (1, 70),
            (2, 6),
            (0, 64),
        ];
        let mut ops: Vec<Op> = pairs.iter().map(|&(i, j)| Op::SetPair(i, j)).collect();
        ops.extend([
            Op::OrRow(1, 2),
            Op::OrRow(2, 0),
            Op::OrRow(2, 2),
            Op::OrRow(129, 3),
        ]);
        out.push(Script { n: 130, ops });
        out
    }

    #[test]
    fn bit_sets_match_a_btreeset_model() {
        for s in examples() {
            if let Err(e) = bit_sets_refine(&s) {
                panic!("example {s:?}: {e}");
            }
        }
        Checker::new("bit_sets_match_a_btreeset_model").run(
            script,
            |s: &Script| {
                check::shrink_vec(&s.ops)
                    .into_iter()
                    .map(|ops| Script { ops, ..s.clone() })
                    .collect()
            },
            bit_sets_refine,
        );
    }

    #[test]
    fn from_graph_matches_arcs() {
        let g = Graph::from_arcs(5, [(0, 1), (3, 4)]);
        let m = BitMatrix::from_graph(&g);
        assert!(m.get(0, 1) && m.get(3, 4));
        assert!(!m.get(1, 0));
        assert_eq!(m.pair_count(), 2);
    }
}
