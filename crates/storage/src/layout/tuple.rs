//! Tuple-page layout: 256 eight-byte `(src, dst)` tuples per page.
//!
//! The paper: "The input relation tuples are 8 bytes long (two integers).
//! Hence, in the relation format 256 tuples may be stored on a page"
//! (§5.1). 256 × 8 = 2048 fills the page exactly, so there is no on-page
//! header; the number of valid tuples on the (only partially filled) last
//! page of a file is tracked by the owning [`crate::RelationFile`].

use crate::page::{Page, PAGE_SIZE};

/// Number of 8-byte tuples per 2048-byte page (exactly fills the page).
pub const TUPLES_PER_PAGE: usize = PAGE_SIZE / 8;

/// Read/write view of a tuple page.
///
/// Slots are dense: slot `i` occupies bytes `[8i, 8i + 8)`, source then
/// destination, little-endian `u32`s.
pub struct TuplePage;

impl TuplePage {
    /// Reads the tuple in slot `slot`.
    #[inline]
    pub fn get(page: &Page, slot: usize) -> (u32, u32) {
        debug_assert!(slot < TUPLES_PER_PAGE);
        let off = slot * 8;
        (page.get_u32(off), page.get_u32(off + 4))
    }

    /// Writes `(src, dst)` into slot `slot`.
    #[inline]
    pub fn put(page: &mut Page, slot: usize, src: u32, dst: u32) {
        debug_assert!(slot < TUPLES_PER_PAGE);
        let off = slot * 8;
        page.put_u32(off, src);
        page.put_u32(off + 4, dst);
    }

    /// Appends the second components of slots `from..to` to `out`, in
    /// one pass over the page bytes.
    pub fn read_values(page: &Page, from: usize, to: usize, out: &mut Vec<u32>) {
        debug_assert!(from <= to && to <= TUPLES_PER_PAGE);
        let slots = page.bytes()[from * 8..to * 8].chunks_exact(8);
        out.extend(slots.map(|t| u32::from_le_bytes([t[4], t[5], t[6], t[7]])));
    }

    /// Reads the first `count` tuples of the page into `out`.
    pub fn read_all(page: &Page, count: usize, out: &mut Vec<(u32, u32)>) {
        debug_assert!(count <= TUPLES_PER_PAGE);
        out.reserve(count);
        for slot in 0..count {
            out.push(Self::get(page, slot));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_paper() {
        assert_eq!(TUPLES_PER_PAGE, 256);
    }

    #[test]
    fn slot_round_trip() {
        let mut p = Page::new();
        TuplePage::put(&mut p, 0, 1, 2);
        TuplePage::put(&mut p, 255, 1999, 4);
        assert_eq!(TuplePage::get(&p, 0), (1, 2));
        assert_eq!(TuplePage::get(&p, 255), (1999, 4));
    }

    #[test]
    fn read_all_prefix() {
        let mut p = Page::new();
        for i in 0..10 {
            TuplePage::put(&mut p, i, i as u32, (i * 2) as u32);
        }
        let mut out = Vec::new();
        TuplePage::read_all(&p, 10, &mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(out[9], (9, 18));
    }

    #[test]
    fn slots_do_not_overlap() {
        let mut p = Page::new();
        for i in 0..TUPLES_PER_PAGE {
            TuplePage::put(&mut p, i, i as u32, u32::MAX - i as u32);
        }
        for i in 0..TUPLES_PER_PAGE {
            assert_eq!(TuplePage::get(&p, i), (i as u32, u32::MAX - i as u32));
        }
    }
}
