//! Fixed-size pages and typed little-endian accessors.
//!
//! The study fixes the page size at 2048 bytes (paper §5.1). All on-disk
//! structures — relation files, index pages, successor-list pages — are
//! laid out inside these pages; the layout views in [`crate::layout`]
//! interpret the raw bytes.

use std::fmt;
use tc_trace::LaneHash;

/// Page size in bytes, as fixed by the paper's experimental setup (§5.1).
pub const PAGE_SIZE: usize = 2048;

/// Identifier of a page on the simulated disk.
///
/// Page ids are global to a [`crate::DiskSim`]; each page additionally
/// belongs to exactly one file (see [`crate::FileId`]). The newtype keeps
/// page numbers from being confused with node ids, slots or frame indexes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Returns the raw page number.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A 2048-byte page image.
///
/// Pages are plain byte buffers; structure is imposed by the layout views.
/// The accessors here read and write little-endian scalars at byte offsets
/// and panic on out-of-range offsets (offsets are always computed from
/// compile-time layout constants, so a violation is a programming error,
/// not a data-dependent condition).
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// Creates a zero-filled page.
    pub fn new() -> Self {
        Page {
            bytes: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Raw read-only view of the page bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Raw mutable view of the page bytes.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    /// Reads a `u32` at byte offset `off`.
    #[inline]
    pub fn get_u32(&self, off: usize) -> u32 {
        let b: [u8; 4] = self.bytes[off..off + 4].try_into().expect("in-page offset");
        u32::from_le_bytes(b)
    }

    /// Writes a `u32` at byte offset `off`.
    #[inline]
    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads an `i32` at byte offset `off`.
    ///
    /// Successor-list entries are signed: the paper's formats designate the
    /// last successor of a list, or a spanning-tree parent, by negating the
    /// node value.
    #[inline]
    pub fn get_i32(&self, off: usize) -> i32 {
        let b: [u8; 4] = self.bytes[off..off + 4].try_into().expect("in-page offset");
        i32::from_le_bytes(b)
    }

    /// Writes an `i32` at byte offset `off`.
    #[inline]
    pub fn put_i32(&mut self, off: usize, v: i32) {
        self.bytes[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u8` at byte offset `off`.
    #[inline]
    pub fn get_u8(&self, off: usize) -> u8 {
        self.bytes[off]
    }

    /// Writes a `u8` at byte offset `off`.
    #[inline]
    pub fn put_u8(&mut self, off: usize, v: u8) {
        self.bytes[off] = v;
    }

    /// Resets the page to all zeroes.
    pub fn clear(&mut self) {
        self.bytes.fill(0);
    }

    /// Checksum of the page image: the workspace's lane hash
    /// ([`LaneHash`]) over the page's 256 little-endian 8-byte words,
    /// finished with [`PAGE_SIZE`]. The one integrity function of every
    /// medium: the in-memory media record it at write or capture time,
    /// the file medium stores it in the slot header.
    ///
    /// Two images that differ in exactly one word — in particular by any
    /// single flipped bit or byte — therefore *always* get different
    /// checksums; damage to several words is caught with probability
    /// 1 − 2⁻⁶⁴ ([`LaneHash`] has the argument). A medium that cannot
    /// trust its bytes verifies it on every read, the others while fault
    /// injection is armed, so silent corruption is *detected* (as
    /// [`crate::StorageError::ChecksumMismatch`]) rather than absorbed
    /// into query answers.
    pub fn checksum(&self) -> u64 {
        Page::checksum_of(&self.bytes[..])
    }

    /// [`Page::checksum`] of a page image held outside a [`Page`] (a
    /// slot of the file segment). `image` is [`PAGE_SIZE`] bytes.
    pub(crate) const fn checksum_of(image: &[u8]) -> u64 {
        debug_assert!(image.len() == PAGE_SIZE);
        LaneHash::new().le_bytes(image).finish(PAGE_SIZE as u64)
    }

    /// [`Page::checksum`] of a zero-filled page, for stores that hand out
    /// fresh pages.
    pub const ZERO_CHECKSUM: u64 = Page::checksum_of(&[0; PAGE_SIZE]);
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Avoid dumping 2 KiB of bytes into debug output.
        let nonzero = self.bytes.iter().filter(|&&b| b != 0).count();
        write!(f, "Page{{{nonzero} non-zero bytes}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut p = Page::new();
        p.put_u32(0, 0xdead_beef);
        p.put_u32(PAGE_SIZE - 4, 42);
        p.put_i32(8, -7);
        p.put_u8(100, 0xab);
        assert_eq!(p.get_u32(0), 0xdead_beef);
        assert_eq!(p.get_u32(PAGE_SIZE - 4), 42);
        assert_eq!(p.get_i32(8), -7);
        assert_eq!(p.get_u8(100), 0xab);
    }

    #[test]
    fn new_page_is_zeroed() {
        let p = Page::new();
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn clear_resets() {
        let mut p = Page::new();
        p.put_u32(12, 99);
        p.clear();
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_offset_panics() {
        let p = Page::new();
        let _ = p.get_u32(PAGE_SIZE - 3);
    }

    #[test]
    fn checksum_tracks_content() {
        let mut p = Page::new();
        let zero = p.checksum();
        p.put_u32(100, 7);
        let with_data = p.checksum();
        assert_ne!(zero, with_data);
        // Deterministic, and restored by clearing.
        assert_eq!(with_data, p.checksum());
        p.clear();
        assert_eq!(p.checksum(), zero);
        assert_eq!(zero, Page::ZERO_CHECKSUM);
    }

    /// A page with no zero word and no two equal words.
    fn busy_page() -> Page {
        let mut busy = Page::new();
        for off in (0..PAGE_SIZE).step_by(4) {
            busy.put_u32(off, (off as u32).wrapping_mul(0x9E37_79B9) | 1);
        }
        busy
    }

    #[test]
    fn checksum_sees_every_single_bit_flip() {
        // All 16,384 bits, on an empty and on a busy page: the lane fold
        // must not lose any position (e.g. to a chunking remainder).
        for mut page in [Page::new(), busy_page()] {
            let clean = page.checksum();
            for bit in 0..PAGE_SIZE * 8 {
                let mask = 1u8 << (bit % 8);
                page.bytes_mut()[bit / 8] ^= mask;
                assert_ne!(page.checksum(), clean, "flip of bit {bit}");
                page.bytes_mut()[bit / 8] ^= mask;
            }
            assert_eq!(page.checksum(), clean);
        }
    }

    #[test]
    fn checksum_sees_every_same_bit_double_flip() {
        // The same bit flipped in two different words: all 64 × C(256,2)
        // pairs. A multiply-only fold keeps a flipped bit 63 as exactly
        // bit 63 of the state, so a second flip of it cancels the first;
        // the xorshift of every step is what rules that out.
        let mut page = busy_page();
        let clean = page.checksum();
        let words = PAGE_SIZE / 8;
        let mut missed = 0u32;
        for bit in 0..64 {
            let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
            for i in 0..words {
                page.bytes_mut()[i * 8 + byte] ^= mask;
                for j in i + 1..words {
                    page.bytes_mut()[j * 8 + byte] ^= mask;
                    missed += u32::from(page.checksum() == clean);
                    page.bytes_mut()[j * 8 + byte] ^= mask;
                }
                page.bytes_mut()[i * 8 + byte] ^= mask;
            }
        }
        assert_eq!(missed, 0, "double flips that left the checksum unchanged");
    }

    #[test]
    fn checksum_depends_on_word_order() {
        let base = busy_page();
        let clean = base.checksum();
        let swapped = |a: usize, b: usize| {
            let mut p = base.clone();
            for k in 0..8 {
                p.bytes_mut().swap(a * 8 + k, b * 8 + k);
            }
            p.checksum()
        };
        const LANES: usize = LaneHash::LANES;
        for w in 0..PAGE_SIZE / 8 - LANES {
            assert_ne!(swapped(w, w + 1), clean, "neighbours {w}, {}", w + 1);
            assert_ne!(
                swapped(w, w + LANES),
                clean,
                "lane mates {w}, {}",
                w + LANES
            );
        }
    }

    #[test]
    fn negative_entries_round_trip() {
        // The successor-list formats rely on sign to mark list ends and
        // tree parents; make sure sign survives serialization.
        let mut p = Page::new();
        p.put_i32(0, -(1234_i32));
        assert_eq!(p.get_i32(0), -1234);
        assert!(p.get_i32(0) < 0);
    }
}
