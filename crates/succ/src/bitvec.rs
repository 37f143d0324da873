//! Bit-vector duplicate elimination.
//!
//! "Duplicate elimination using bit vectors was found to be quite cheap"
//! — under 6% of total CPU in the paper's profile of BTC on G6 (§6.1,
//! §6.2). Each list being expanded keeps one [`NodeBitVec`] recording
//! which nodes are already present, so a union degenerates to a test+set
//! per scanned entry.
//!
//! [`NodeBitVec`] keeps that test+set but not the bits: it is a
//! generation-stamped set, one 2-byte stamp per node, and a node is in
//! the set iff its stamp equals the current generation. A test is one
//! compare, a set one store, and the reset between lists bumps the
//! generation in O(1) instead of erasing what the last list set. The
//! stamps are re-zeroed once per 65,535 resets, when the generation
//! wraps.
//!
//! [`BitRow`] is the plain word array: [`crate::TupleRows`] keeps one per
//! closure row that maintenance has written to.

/// A fixed-size bit set over node ids: test, set, clear, word-parallel
/// union, and the set ids in ascending order. Two rows are equal when
/// they are over the same `n` and hold the same ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitRow {
    words: Vec<u64>,
}

impl BitRow {
    /// Creates an empty row over `n` node ids.
    pub fn new(n: usize) -> BitRow {
        BitRow {
            words: vec![0u64; n.div_ceil(64)],
        }
    }

    /// Tests bit `v`.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        let v = v as usize;
        debug_assert!(v < self.words.len() * 64);
        self.words[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Sets bit `v`; returns `true` if it was newly set.
    #[inline]
    pub fn set(&mut self, v: u32) -> bool {
        let idx = v as usize;
        debug_assert!(idx < self.words.len() * 64);
        let mask = 1u64 << (idx % 64);
        if self.words[idx / 64] & mask != 0 {
            false
        } else {
            self.words[idx / 64] |= mask;
            true
        }
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit that is set in `other`, a row over the same `n`.
    pub fn union_with(&mut self, other: &BitRow) {
        assert_eq!(self.words.len(), other.words.len(), "rows differ in n");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Makes this row hold exactly the bits of `other`, a row over the
    /// same `n`.
    pub fn copy_from(&mut self, other: &BitRow) {
        self.words.copy_from_slice(&other.words);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set node ids, ascending.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            next_word: 0,
            current: 0,
        }
    }
}

/// Ascending iterator over the set bits of a [`BitRow`].
#[derive(Clone, Debug)]
pub struct Ones<'a> {
    words: &'a [u64],
    next_word: usize,
    /// Unvisited bits of word `next_word - 1`.
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.current = *self.words.get(self.next_word)?;
            self.next_word += 1;
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some((self.next_word as u32 - 1) * 64 + bit)
    }
}

/// A node's stamp: two bytes per node per set.
type Stamp = u16;

/// A set over node ids `0..n` with O(1) reset: node `v` is in the set iff
/// `stamps[v]` equals the current generation.
///
/// `clear_fast` moves to the next generation, which empties the set
/// without touching a stamp, so reusing one set across the expansion of
/// many lists costs time proportional to the entries tested, not to what
/// the last list set. Stamps start at 0 and the generation at 1; when
/// the generation wraps, every stamp is zeroed once and it restarts at 1.
#[derive(Clone, Debug)]
pub struct NodeBitVec {
    stamps: Vec<Stamp>,
    generation: Stamp,
    len: usize,
}

impl NodeBitVec {
    /// Creates an empty set over `n` node ids.
    pub fn new(n: usize) -> NodeBitVec {
        NodeBitVec {
            stamps: vec![0; n],
            generation: 1,
            len: 0,
        }
    }

    /// Tests whether `v` is in the set.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        self.stamps[v as usize] == self.generation
    }

    /// Adds `v`; returns `true` if it was not in the set.
    #[inline]
    pub fn insert(&mut self, v: u32) -> bool {
        let stamp = &mut self.stamps[v as usize];
        if *stamp == self.generation {
            return false;
        }
        *stamp = self.generation;
        self.len += 1;
        true
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the set in O(1); once per wrap of the generation, in O(n).
    #[inline]
    pub fn clear_fast(&mut self) {
        self.len = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// An empty set whose generation wraps at the `resets`-th
    /// `clear_fast`, so a test can cross the wrap.
    #[cfg(test)]
    fn near_wrap(n: usize, resets: Stamp) -> NodeBitVec {
        assert!(resets > 0, "generation 0 is never current");
        NodeBitVec {
            generation: Stamp::MAX - resets + 1,
            ..NodeBitVec::new(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tc_det::check::{self, Checker};
    use tc_det::{require, require_eq, Rng};

    #[test]
    fn insert_and_contains() {
        let mut b = NodeBitVec::new(200);
        assert!(b.insert(0));
        assert!(b.insert(199));
        assert!(!b.insert(0), "duplicate insert returns false");
        assert!(b.contains(0) && b.contains(199));
        assert!(!b.contains(100));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn clear_fast_resets_everything() {
        let mut b = NodeBitVec::new(500);
        for v in (0..500).step_by(7) {
            b.insert(v);
        }
        b.clear_fast();
        assert!(b.is_empty());
        for v in 0..500 {
            assert!(!b.contains(v));
        }
        // Reusable after clearing.
        assert!(b.insert(3));
        assert_eq!(b.len(), 1);
    }

    /// One step of a stamped-set script; `Clear(k)` is `k` resets in a row,
    /// so a short script can run the generation through a whole wrap.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(u32),
        Contains(u32),
        Clear(u32),
    }

    /// A set over `n` ids whose generation wraps at reset `resets`, and
    /// the script run on it.
    #[derive(Clone, Debug)]
    struct Script {
        n: u32,
        resets: Stamp,
        ops: Vec<Op>,
    }

    fn script(rng: &mut Rng) -> Script {
        let n = rng.random_range(1..130u32);
        let mut ops = check::vec_of(rng, 1..120, |r| match r.random_range(0..10u32) {
            0..=3 => Op::Insert(r.random_range(0..n)),
            4..=6 => Op::Contains(r.random_range(0..n)),
            // Mostly single resets; sometimes a whole cycle of generations,
            // which crosses one wrap and ends on the generation it started
            // from, so a stamp the wrap did not erase would read as present.
            7 | 8 => Op::Clear(1),
            _ => Op::Clear(Stamp::MAX as u32),
        });
        let total: u64 = ops
            .iter()
            .map(|op| match *op {
                Op::Clear(k) => k as u64,
                _ => 0,
            })
            .sum();
        if total == 0 {
            ops.push(Op::Clear(1));
        }
        // The wrap falls on one of the script's resets.
        let resets = rng.random_range(1..=total.clamp(1, Stamp::MAX as u64 - 1)) as Stamp;
        Script { n, resets, ops }
    }

    #[test]
    fn stamped_set_matches_a_btreeset_model() {
        Checker::new("stamped_set_matches_a_btreeset_model").run(
            script,
            |s: &Script| {
                check::shrink_vec(&s.ops)
                    .into_iter()
                    .map(|ops| Script { ops, ..s.clone() })
                    .collect()
            },
            |s| {
                let mut set = NodeBitVec::near_wrap(s.n as usize, s.resets);
                let mut model = BTreeSet::new();
                for (i, op) in s.ops.iter().enumerate() {
                    match *op {
                        Op::Insert(v) => require_eq!(set.insert(v), model.insert(v), "op {i}"),
                        Op::Contains(v) => {
                            require_eq!(set.contains(v), model.contains(&v), "op {i}")
                        }
                        Op::Clear(k) => {
                            for _ in 0..k {
                                set.clear_fast();
                            }
                            model.clear();
                        }
                    }
                    // `len` is read by SRCH's magic-node count.
                    require_eq!(set.len(), model.len(), "len after op {i}");
                    require_eq!(set.is_empty(), model.is_empty(), "op {i}");
                    for v in 0..s.n {
                        require!(set.contains(v) == model.contains(&v), "{v} after op {i}");
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn a_wrap_forgets_every_stamp_written_before_it() {
        let mut set = NodeBitVec::near_wrap(4, 1);
        assert!(set.insert(3));
        set.clear_fast();
        assert_eq!(set.generation, 1, "the first reset wraps");
        assert!(set.is_empty() && !set.contains(3));
        // Without the re-zero, a stamp of generation 2 written before
        // the wrap would read as present once the generation is 2 again.
        let mut set = NodeBitVec::near_wrap(4, Stamp::MAX - 1);
        assert_eq!(set.generation, 2);
        assert!(set.insert(1));
        for _ in 0..Stamp::MAX {
            set.clear_fast();
        }
        assert_eq!(set.generation, 2);
        assert!(!set.contains(1) && set.insert(1));
    }

    #[test]
    fn word_boundary_bits() {
        let mut b = NodeBitVec::new(130);
        b.insert(63);
        b.insert(64);
        b.insert(127);
        b.insert(128);
        assert!(b.contains(63) && b.contains(64) && b.contains(127) && b.contains(128));
        assert!(!b.contains(65));
    }

    #[test]
    fn bit_row_sets_and_lists_ascending() {
        for n in [0usize, 1, 63, 64, 65, 200] {
            let mut row = BitRow::new(n);
            assert_eq!(row.ones().count(), 0, "n = {n}");
            let ids: Vec<u32> = (0..n as u32).filter(|v| v % 3 != 1).collect();
            for &v in ids.iter().rev() {
                assert!(row.set(v));
                assert!(!row.set(v), "second set of {v} reports fresh");
            }
            assert_eq!(row.ones().collect::<Vec<_>>(), ids, "n = {n}");
            assert_eq!(row.count_ones(), ids.len());
            for v in 0..n as u32 {
                assert_eq!(row.contains(v), v % 3 != 1, "{v}");
            }
            row.clear();
            assert_eq!(row.count_ones(), 0);
        }
    }

    #[test]
    fn bit_row_union_and_equality_at_the_word_boundary() {
        for n in [0usize, 1, 63, 64, 65, 128, 129] {
            let of = |ids: &[u32]| {
                let mut row = BitRow::new(n);
                for &v in ids.iter().filter(|&&v| (v as usize) < n) {
                    row.set(v);
                }
                row
            };
            let (low, high) = (of(&[0, 62, 63]), of(&[63, 64, 127, 128]));
            let mut both = low.clone();
            both.union_with(&high);
            assert_eq!(both, of(&[0, 62, 63, 64, 127, 128]), "n = {n}");
            assert_eq!(both.count_ones(), both.ones().count());
            // Equality is by content, in every word: a row that differs
            // only in its last id is a different row.
            if n > 0 {
                let last = n as u32 - 1;
                let rest = of(&both.ones().filter(|&v| v != last).collect::<Vec<_>>());
                let mut other = rest.clone();
                other.set(last);
                assert_ne!(rest, other, "n = {n}");
            }
            let mut again = both.clone();
            again.union_with(&low);
            assert_eq!(again, both, "union with a subset changes nothing");
            both.clear();
            assert_eq!(both, BitRow::new(n), "n = {n}");
        }
    }
}
