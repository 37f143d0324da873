//! Bit-vector duplicate elimination.
//!
//! "Duplicate elimination using bit vectors was found to be quite cheap"
//! — under 6% of total CPU in the paper's profile of BTC on G6 (§6.1,
//! §6.2). Each list being expanded keeps one [`NodeBitVec`] recording
//! which nodes are already present, so a union degenerates to a test+set
//! per scanned entry.
//!
//! [`BitRow`] is the word array underneath: [`NodeBitVec`] adds the
//! set list that makes its reset cheap, and [`crate::TupleRows`] keeps
//! one per closure row that maintenance has written to.

/// A fixed-size bit set over node ids: test, set, unset, word-parallel
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

    /// Clears bit `v`; returns `true` if it was set.
    #[inline]
    pub fn unset(&mut self, v: u32) -> bool {
        let idx = v as usize;
        debug_assert!(idx < self.words.len() * 64);
        let mask = 1u64 << (idx % 64);
        if self.words[idx / 64] & mask == 0 {
            false
        } else {
            self.words[idx / 64] &= !mask;
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

/// A fixed-size bit set over node ids with O(set-bits) reset.
///
/// `clear_fast` erases only the bits that were set, so reusing one vector
/// across the expansion of many lists costs time proportional to the work
/// done, not to `n` per list.
#[derive(Clone, Debug)]
pub struct NodeBitVec {
    bits: BitRow,
    set_list: Vec<u32>,
}

impl NodeBitVec {
    /// Creates an empty bit vector over `n` node ids.
    pub fn new(n: usize) -> NodeBitVec {
        NodeBitVec {
            bits: BitRow::new(n),
            set_list: Vec::new(),
        }
    }

    /// Tests bit `v`.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        self.bits.contains(v)
    }

    /// Sets bit `v`; returns `true` if it was newly set.
    #[inline]
    pub fn insert(&mut self, v: u32) -> bool {
        let fresh = self.bits.set(v);
        if fresh {
            self.set_list.push(v);
        }
        fresh
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.set_list.len()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.set_list.is_empty()
    }

    /// Clears all set bits in O(set-bits).
    pub fn clear_fast(&mut self) {
        for &v in &self.set_list {
            self.bits.words[v as usize / 64] = 0;
        }
        // Whole-word zeroing above may clear neighbours of still-listed
        // bits that share a word — but every set bit is in set_list, so
        // every word touched is fully accounted for and ends zero.
        self.set_list.clear();
        debug_assert!(self.bits.words.iter().all(|&w| w == 0));
    }

    /// The set node ids, in insertion order.
    pub fn inserted(&self) -> &[u32] {
        &self.set_list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut b = NodeBitVec::new(200);
        assert!(b.insert(0));
        assert!(b.insert(199));
        assert!(!b.insert(0), "duplicate insert returns false");
        assert!(b.contains(0) && b.contains(199));
        assert!(!b.contains(100));
        assert_eq!(b.len(), 2);
        assert_eq!(b.inserted(), &[0, 199]);
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
    fn bit_row_sets_unsets_and_lists_ascending() {
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
            for &v in &ids {
                assert!(row.contains(v));
                assert!(row.unset(v));
                assert!(!row.unset(v), "second unset of {v} reports set");
                assert!(!row.contains(v));
            }
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
                let mut other = both.clone();
                let last = n as u32 - 1;
                assert!(other.set(last) || other.unset(last));
                assert_ne!(both, other, "n = {n}");
            }
            let mut again = both.clone();
            again.union_with(&low);
            assert_eq!(again, both, "union with a subset changes nothing");
            both.clear();
            assert_eq!(both, BitRow::new(n), "n = {n}");
        }
    }
}
