//! Fixed-size pages and typed little-endian accessors.
//!
//! The study fixes the page size at 2048 bytes (paper §5.1). All on-disk
//! structures — relation files, index pages, successor-list pages — are
//! laid out inside these pages; the layout views in [`crate::layout`]
//! interpret the raw bytes.

use std::fmt;

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

    /// Checksum of the page image: FNV-1a (64-bit) folded over the
    /// page's 256 little-endian 8-byte words instead of its bytes.
    ///
    /// Each step `h = (h ^ word) * prime` is a bijection of `h` for a
    /// fixed word and of the word for a fixed `h` (the prime is odd), so
    /// two images that differ in any one word — in particular by any
    /// single flipped byte — always get different checksums.
    ///
    /// The simulated disk records this at write time and verifies it on
    /// read when fault injection is armed, so silent corruption is
    /// *detected* (as [`crate::StorageError::ChecksumMismatch`]) rather
    /// than absorbed into query answers.
    pub fn checksum(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for chunk in self.bytes.chunks_exact(8) {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            h = (h ^ u64::from_le_bytes(word)).wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// [`Page::checksum`] of a zero-filled page, for stores that hand out
    /// fresh pages.
    pub const ZERO_CHECKSUM: u64 = {
        let mut h = FNV_OFFSET;
        let mut words = PAGE_SIZE / 8;
        while words > 0 {
            h = h.wrapping_mul(FNV_PRIME);
            words -= 1;
        }
        h
    };
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

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

    #[test]
    fn checksum_sees_a_flip_at_every_byte_offset() {
        // On an empty and on a busy page: the word fold must not lose
        // any byte position (e.g. to a chunking remainder).
        let mut busy = Page::new();
        for off in (0..PAGE_SIZE).step_by(4) {
            busy.put_u32(off, (off as u32).wrapping_mul(0x9E37_79B9) | 1);
        }
        for base in [Page::new(), busy] {
            let clean = base.checksum();
            for off in 0..PAGE_SIZE {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut p = base.clone();
                    p.bytes_mut()[off] ^= mask;
                    assert_ne!(p.checksum(), clean, "flip {mask:#04x} at byte {off}");
                }
            }
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
