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
}
