//! FNV-1a digests over canonical event encodings.
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
//! [`Fnv::u32`] is the hot fold (reply rows, page ids): it skips the xor
//! of bytes it knows are zero and multiplies by the prime squared
//! instead. That is FNV-1a itself, not an approximation of it — a zero
//! byte's step *is* a bare multiply — so no pinned digest can tell.

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
