//! The workspace's two digests: FNV-1a over canonical event encodings,
//! and a four-lane word hash over page images and reply payloads.
//!
//! The workspace pins golden values with FNV-1a, and this module is its
//! one implementation: the golden suites digest bytes with
//! [`Fnv::bytes`], and `tests/decode_exactness.rs` keeps the byte-wise
//! reference the fast path is held to. Every event folds into the digest
//! through a canonical byte encoding — a discriminant byte followed by
//! the fields in declaration order, integers little-endian, `f64` via
//! `to_bits`, strings as length + bytes — so the digest is a pure
//! function of the event sequence, independent of process, machine and
//! scheduling.
//!
//! [`Fnv::u32`] is the hot fold (page and node ids in events, request
//! fields): it skips the xor of bytes it knows are zero and multiplies
//! by the prime squared instead. That is FNV-1a itself, not an
//! approximation of it — a zero byte's step *is* a bare multiply — so no
//! pinned digest can tell.
//!
//! [`LaneHash`] is the hash for long runs of words, where FNV-1a's one
//! dependent multiply per byte is the whole cost: `Page::checksum` runs
//! it over a page's 256 words, `Reply::digest` over a reply's ids.

use crate::event::Event;

/// The 64-bit FNV prime.
const PRIME: u64 = 0x0000_0100_0000_01B3;
const PRIME_SQUARED: u64 = PRIME.wrapping_mul(PRIME);

/// Incremental FNV-1a (64-bit) hasher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// Folds one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(PRIME);
    }

    /// Folds a little-endian `u32`.
    ///
    /// Folding a zero byte is `(h ^ 0) * P = h * P`, so the two high
    /// bytes of a value that fits in 16 bits (a page, node or chain id,
    /// nearly always) fold as one multiplication by `P²`: the same
    /// digest bit for bit, with a shorter dependent chain.
    #[inline]
    pub fn u32(&mut self, x: u32) {
        let [b0, b1, b2, b3] = x.to_le_bytes();
        self.byte(b0);
        self.byte(b1);
        if x <= 0xFFFF {
            self.0 = self.0.wrapping_mul(PRIME_SQUARED);
        } else {
            self.byte(b2);
            self.byte(b3);
        }
    }

    /// Folds a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Folds an `f64` by its IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Plain FNV-1a of a whole buffer: a byte fold from the offset
    /// basis with no length prefix. This is the digest the golden suites
    /// pin report fragments, rendered profiles and on-disk bytes with.
    pub fn bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        for &b in bytes {
            h.byte(b);
        }
        h.finish()
    }

    /// Folds a string as length + UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for &b in s.as_bytes() {
            self.byte(b);
        }
    }

    /// Folds a bool as one byte.
    #[inline]
    pub fn bool(&mut self, b: bool) {
        self.byte(b as u8);
    }

    /// Folds one event through its canonical encoding (generated from
    /// the vocabulary table in [`crate::event`]).
    pub fn event(&mut self, ev: &Event) {
        ev.fold(self);
    }
}

/// Word-at-a-time hash: four interleaved multiply-xorshift lanes over a
/// sequence of `u64` words (word `i` feeds lane `i % 4`), folded into
/// one value by [`LaneHash::finish`] with a caller's tag.
///
/// Each lane step `h = (h ^ word) * P; h ^= h >> 32` is a bijection of
/// `h` for a fixed word and of the word for a fixed `h` (`P` is odd, the
/// xorshift is invertible), and the finish applies the same step to
/// each lane in turn, so it is a bijection in every lane and in the tag.
/// Two sequences of equal length that differ in exactly one word
/// therefore *always* hash differently, and so do two tags over the
/// same words. Damage to several words is caught with probability
/// 1 − 2⁻⁶⁴, not certainty; the xorshift is what keeps a flipped high
/// bit from staying confined to the bits above it, where the same flip
/// in a second word would cancel it. The four lanes carry no dependency
/// on one another, so `n` words cost `n / 4` dependent steps.
///
/// The word count is not absorbed: a caller whose sequences vary in
/// length puts the length in the tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneHash([u64; LANES]);

/// Independent dependency chains in a [`LaneHash`].
const LANES: usize = 4;
/// Lane start values (the SplitMix64 increment and its multiples), so a
/// word moved to another lane meets a different state.
const LANE_SEEDS: [u64; LANES] = [
    0x9E37_79B9_7F4A_7C15,
    0x3C6E_F372_FE94_F82A,
    0xDAA6_6D2C_7DDF_743F,
    0x78DD_E6E5_FD29_F054,
];
/// The odd multiplier of every step (SplitMix64's first finalizer).
const MIX_PRIME: u64 = 0xBF58_476D_1CE4_E5B9;

/// One lane step: absorbs `word` into `h`. A bijection in either
/// argument with the other fixed.
#[inline]
const fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(MIX_PRIME);
    h ^ (h >> 32)
}

impl Default for LaneHash {
    fn default() -> Self {
        LaneHash::new()
    }
}

impl LaneHash {
    /// Number of lanes: words this far apart meet the same lane.
    pub const LANES: usize = LANES;

    /// A fresh hash: every lane at its seed, no word absorbed.
    pub const fn new() -> LaneHash {
        LaneHash(LANE_SEEDS)
    }

    /// Absorbs up to four consecutive words, word `j` into lane `j`. A
    /// run of words is a run of whole blocks plus at most one shorter
    /// last one.
    #[inline]
    pub const fn block(mut self, words: &[u64]) -> LaneHash {
        debug_assert!(words.len() <= LANES);
        let mut lane = 0;
        while lane < words.len() {
            self.0[lane] = mix(self.0[lane], words[lane]);
            lane += 1;
        }
        self
    }

    /// Absorbs `bytes` as little-endian words. `bytes.len()` is a
    /// multiple of 32 (whole blocks), as a page image's is.
    #[inline]
    pub const fn le_bytes(mut self, bytes: &[u8]) -> LaneHash {
        let (words, rest) = bytes.as_chunks::<8>();
        let (blocks, rest_words) = words.as_chunks::<LANES>();
        debug_assert!(rest.is_empty() && rest_words.is_empty());
        let mut i = 0;
        while i < blocks.len() {
            let [w0, w1, w2, w3] = blocks[i];
            self = self.block(&[
                u64::from_le_bytes(w0),
                u64::from_le_bytes(w1),
                u64::from_le_bytes(w2),
                u64::from_le_bytes(w3),
            ]);
            i += 1;
        }
        self
    }

    /// Absorbs `xs` packed in pairs, `xs[2k]` in the low half of word
    /// `k` and `xs[2k + 1]` in the high half; an odd last value is
    /// paired with 0 (so the caller's tag must carry `xs.len()`).
    #[inline]
    pub fn u32_pairs(mut self, xs: &[u32]) -> LaneHash {
        let pair = |lo: u32, hi: u32| lo as u64 | (hi as u64) << 32;
        let (blocks, tail) = xs.as_chunks::<{ 2 * LANES }>();
        for &[a, b, c, d, e, f, g, h] in blocks {
            self = self.block(&[pair(a, b), pair(c, d), pair(e, f), pair(g, h)]);
        }
        let mut last = [0u64; LANES];
        for (word, p) in last.iter_mut().zip(tail.chunks(2)) {
            *word = pair(p[0], p.get(1).copied().unwrap_or(0));
        }
        self.block(&last[..tail.len().div_ceil(2)])
    }

    /// The hash: starting from `tag`, one lane step per lane in turn.
    #[inline]
    pub const fn finish(self, tag: u64) -> u64 {
        let mut h = tag;
        let mut lane = 0;
        while lane < LANES {
            h = mix(h, self.0[lane]);
            lane += 1;
        }
        h
    }
}

/// The digest of an event stream: the FNV-1a hash plus the event count
/// (the count disambiguates streams whose hashes would need a collision
/// to confuse, and makes failure messages actionable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TraceDigest {
    /// FNV-1a over the canonical event encodings.
    pub hash: u64,
    /// Number of events folded.
    pub count: u64,
}

/// Digests a complete event sequence.
pub fn digest_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> TraceDigest {
    let mut h = Fnv::new();
    let mut count = 0u64;
    for e in events {
        h.event(e);
        count += 1;
    }
    TraceDigest {
        hash: h.finish(),
        count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") is a published test vector.
        let mut h = Fnv::new();
        h.byte(b'a');
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(Fnv::bytes(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(Fnv::bytes(b""), Fnv::new().finish());
    }

    #[test]
    fn digest_distinguishes_field_values_and_order() {
        // Events differing only in a field value, or only in order,
        // must produce different digests.
        let a = [
            Event::BufHit {
                page: 1,
                read: true,
            },
            Event::BufMiss {
                page: 2,
                read: false,
            },
        ];
        let b = [
            Event::BufHit {
                page: 1,
                read: false,
            },
            Event::BufMiss {
                page: 2,
                read: false,
            },
        ];
        let c = [
            Event::BufMiss {
                page: 2,
                read: false,
            },
            Event::BufHit {
                page: 1,
                read: true,
            },
        ];
        let (da, db, dc) = (digest_events(&a), digest_events(&b), digest_events(&c));
        assert_ne!(da.hash, db.hash);
        assert_ne!(da.hash, dc.hash);
        assert_eq!(da.count, 2);
        // Same stream, same digest.
        assert_eq!(da, digest_events(&a));
    }
}
