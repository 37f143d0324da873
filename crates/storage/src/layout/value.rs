//! Value-page layout: 512 four-byte values per page.
//!
//! The paper stops carrying a list's source once tuples have become
//! successor lists (§5.1: 256 eight-byte tuples a page for the input
//! relation, bare successors after restructuring). A file that is only
//! ever read *by position* — the caller knows from a table of its own
//! which slots it wants — has no key worth storing either, so its pages
//! hold values alone: 512 × 4 = 2048 fills the page exactly, there is no
//! on-page header, and the number of valid values on the last page is
//! tracked by the owning [`crate::ValueFile`].

use crate::page::{Page, PAGE_SIZE};

/// Number of 4-byte values per 2048-byte page (exactly fills the page).
pub const VALUES_PER_PAGE: usize = PAGE_SIZE / 4;

/// Read/write view of a value page.
///
/// Slots are dense: slot `i` occupies bytes `[4i, 4i + 4)`, a
/// little-endian `u32`.
pub struct ValuePage;

impl ValuePage {
    /// Reads the value in slot `slot`.
    #[inline]
    pub fn get(page: &Page, slot: usize) -> u32 {
        debug_assert!(slot < VALUES_PER_PAGE);
        page.get_u32(slot * 4)
    }

    /// Appends slots `from..to` to `out`, in one pass over the page
    /// bytes.
    pub fn read(page: &Page, from: usize, to: usize, out: &mut Vec<u32>) {
        debug_assert!(from <= to && to <= VALUES_PER_PAGE);
        let slots = page.bytes()[from * 4..to * 4].chunks_exact(4);
        out.extend(slots.map(|v| u32::from_le_bytes([v[0], v[1], v[2], v[3]])));
    }

    /// Writes `values` into the slots starting at `from`, in one pass
    /// over the page bytes.
    pub fn write(page: &mut Page, from: usize, values: &[u32]) {
        debug_assert!(from + values.len() <= VALUES_PER_PAGE);
        let slots = page.bytes_mut()[from * 4..(from + values.len()) * 4].chunks_exact_mut(4);
        for (slot, v) in slots.zip(values) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity() {
        assert_eq!(VALUES_PER_PAGE, 512);
    }

    #[test]
    fn round_trip_at_both_ends() {
        let mut p = Page::new();
        ValuePage::write(&mut p, 0, &[10, 11]);
        ValuePage::write(&mut p, 510, &[20_000, u32::MAX]);
        assert_eq!(ValuePage::get(&p, 1), 11);
        assert_eq!(ValuePage::get(&p, 511), u32::MAX);
        let mut out = vec![7];
        ValuePage::read(&p, 509, 512, &mut out);
        assert_eq!(out, [7, 0, 20_000, u32::MAX]);
        ValuePage::read(&p, 3, 3, &mut out);
        assert_eq!(out.len(), 4, "an empty range reads nothing");
    }
}
