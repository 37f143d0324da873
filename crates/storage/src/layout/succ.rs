//! Successor-list page layout: 30 blocks of 15 entries (450 per page).
//!
//! The paper (§5.1): "After conversion to successor list format in the
//! restructuring phase 450 successors may be stored on each page. (A
//! successor list page is divided into 30 blocks, each holding up to 15
//! successor nodes.)"
//!
//! Layout of a 2048-byte successor page:
//!
//! ```text
//! offset 0    ..120   30 × u32  block owner (node id + 1; 0 = free block)
//! offset 120  ..150   30 × u8   entries used in each block (0..=15)
//! offset 152  ..1952  30 × 15 × i32  entry slots
//! offset 1952 ..2048  unused
//! ```
//!
//! Entries are *signed*: in the flat list format the last immediate
//! successor of a list is stored negated; in the spanning-tree format a
//! parent (internal) node is stored negated and is followed by its
//! children. Node ids are stored as `id + 1` inside entries so that node 0
//! can carry a sign (the accessors apply the bias; callers see plain ids).

use crate::page::{Page, PageId};

/// Blocks per successor page.
pub const BLOCKS_PER_PAGE: usize = 30;
/// Entry slots per block.
pub const ENTRIES_PER_BLOCK: usize = 15;
/// Successors per page (the paper's 450).
pub const SUCCESSORS_PER_PAGE: usize = BLOCKS_PER_PAGE * ENTRIES_PER_BLOCK;

const OWNERS_OFF: usize = 0;
const USED_OFF: usize = OWNERS_OFF + BLOCKS_PER_PAGE * 4;
const ENTRIES_OFF: usize = 152;

/// Address of one block on one successor page.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SuccBlockRef {
    /// Page holding the block.
    pub page: PageId,
    /// Block index within the page (`0..BLOCKS_PER_PAGE`).
    pub block: u8,
}

/// A signed successor entry as seen by callers: a node id plus a tag bit.
///
/// The tag is the paper's negation trick; what it *means* depends on the
/// list format (end-of-list for flat lists, parent marker for trees).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SuccEntry {
    /// The node id.
    pub node: u32,
    /// Whether the entry was stored negated.
    pub tagged: bool,
}

impl SuccEntry {
    /// Plain (untagged) entry.
    pub fn plain(node: u32) -> Self {
        SuccEntry {
            node,
            tagged: false,
        }
    }

    /// Tagged (negated) entry.
    pub fn tagged(node: u32) -> Self {
        SuccEntry { node, tagged: true }
    }
}

/// Read/write view of a successor page.
pub struct SuccPage;

impl SuccPage {
    /// Owner of block `b`, or `None` if the block is free.
    #[inline]
    pub fn owner(page: &Page, b: usize) -> Option<u32> {
        debug_assert!(b < BLOCKS_PER_PAGE);
        let raw = page.get_u32(OWNERS_OFF + b * 4);
        if raw == 0 {
            None
        } else {
            Some(raw - 1)
        }
    }

    /// Assigns block `b` to node `owner`.
    #[inline]
    pub fn set_owner(page: &mut Page, b: usize, owner: u32) {
        debug_assert!(b < BLOCKS_PER_PAGE);
        page.put_u32(OWNERS_OFF + b * 4, owner + 1);
    }

    /// Frees block `b` (clears owner and used count).
    #[inline]
    pub fn free_block(page: &mut Page, b: usize) {
        debug_assert!(b < BLOCKS_PER_PAGE);
        page.put_u32(OWNERS_OFF + b * 4, 0);
        page.put_u8(USED_OFF + b, 0);
    }

    /// Number of entries used in block `b`.
    #[inline]
    pub fn used(page: &Page, b: usize) -> usize {
        debug_assert!(b < BLOCKS_PER_PAGE);
        page.get_u8(USED_OFF + b) as usize
    }

    /// Sets the used count of block `b`.
    #[inline]
    pub fn set_used(page: &mut Page, b: usize, used: usize) {
        debug_assert!(b < BLOCKS_PER_PAGE && used <= ENTRIES_PER_BLOCK);
        page.put_u8(USED_OFF + b, used as u8);
    }

    /// Reads entry `k` of block `b`.
    #[inline]
    pub fn entry(page: &Page, b: usize, k: usize) -> SuccEntry {
        debug_assert!(b < BLOCKS_PER_PAGE && k < ENTRIES_PER_BLOCK);
        Self::decode(page.get_i32(ENTRIES_OFF + (b * ENTRIES_PER_BLOCK + k) * 4))
    }

    /// The first `used` entries of block `b`, decoded in one pass over
    /// their bytes.
    #[inline]
    pub fn entries(page: &Page, b: usize, used: usize) -> impl Iterator<Item = SuccEntry> + '_ {
        debug_assert!(b < BLOCKS_PER_PAGE && used <= ENTRIES_PER_BLOCK);
        let off = ENTRIES_OFF + b * ENTRIES_PER_BLOCK * 4;
        page.bytes()[off..off + used * 4]
            .chunks_exact(4)
            .map(|raw| Self::decode(i32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]])))
    }

    #[inline]
    fn decode(raw: i32) -> SuccEntry {
        debug_assert!(raw != 0, "entry slot read before being written");
        if raw < 0 {
            SuccEntry {
                node: (-raw - 1) as u32,
                tagged: true,
            }
        } else {
            SuccEntry {
                node: (raw - 1) as u32,
                tagged: false,
            }
        }
    }

    /// Writes entry `k` of block `b`.
    #[inline]
    pub fn set_entry(page: &mut Page, b: usize, k: usize, e: SuccEntry) {
        debug_assert!(b < BLOCKS_PER_PAGE && k < ENTRIES_PER_BLOCK);
        let biased = (e.node + 1) as i32;
        let raw = if e.tagged { -biased } else { biased };
        page.put_i32(ENTRIES_OFF + (b * ENTRIES_PER_BLOCK + k) * 4, raw);
    }

    /// Clears the tag of entry `k` of block `b`, in place.
    #[inline]
    pub fn untag_entry(page: &mut Page, b: usize, k: usize) {
        debug_assert!(b < BLOCKS_PER_PAGE && k < ENTRIES_PER_BLOCK);
        let off = ENTRIES_OFF + (b * ENTRIES_PER_BLOCK + k) * 4;
        page.put_i32(off, page.get_i32(off).wrapping_abs());
    }

    /// Index of the first free block on the page, if any.
    pub fn find_free_block(page: &Page) -> Option<usize> {
        (0..BLOCKS_PER_PAGE).find(|&b| Self::owner(page, b).is_none())
    }

    /// Number of free blocks on the page.
    pub fn free_blocks(page: &Page) -> usize {
        (0..BLOCKS_PER_PAGE)
            .filter(|&b| Self::owner(page, b).is_none())
            .count()
    }

    /// Blocks on this page owned by `node`, in block order.
    pub fn blocks_of(page: &Page, node: u32) -> Vec<usize> {
        (0..BLOCKS_PER_PAGE)
            .filter(|&b| Self::owner(page, b) == Some(node))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    #[test]
    fn capacities_match_paper() {
        assert_eq!(BLOCKS_PER_PAGE, 30);
        assert_eq!(ENTRIES_PER_BLOCK, 15);
        assert_eq!(SUCCESSORS_PER_PAGE, 450);
        // Layout must fit in the page.
        const _FITS: () = assert!(ENTRIES_OFF + SUCCESSORS_PER_PAGE * 4 <= PAGE_SIZE);
    }

    #[test]
    fn owner_round_trip_including_node_zero() {
        let mut p = Page::new();
        assert_eq!(SuccPage::owner(&p, 0), None);
        SuccPage::set_owner(&mut p, 0, 0);
        assert_eq!(SuccPage::owner(&p, 0), Some(0));
        SuccPage::set_owner(&mut p, 29, 1999);
        assert_eq!(SuccPage::owner(&p, 29), Some(1999));
        SuccPage::free_block(&mut p, 0);
        assert_eq!(SuccPage::owner(&p, 0), None);
    }

    #[test]
    fn entry_sign_round_trip() {
        let mut p = Page::new();
        SuccPage::set_entry(&mut p, 3, 0, SuccEntry::plain(0));
        SuccPage::set_entry(&mut p, 3, 1, SuccEntry::tagged(0));
        SuccPage::set_entry(&mut p, 3, 14, SuccEntry::tagged(1999));
        assert_eq!(SuccPage::entry(&p, 3, 0), SuccEntry::plain(0));
        assert_eq!(SuccPage::entry(&p, 3, 1), SuccEntry::tagged(0));
        assert_eq!(SuccPage::entry(&p, 3, 14), SuccEntry::tagged(1999));
    }

    #[test]
    fn used_counts() {
        let mut p = Page::new();
        assert_eq!(SuccPage::used(&p, 7), 0);
        SuccPage::set_used(&mut p, 7, 15);
        assert_eq!(SuccPage::used(&p, 7), 15);
    }

    #[test]
    fn free_block_scan() {
        let mut p = Page::new();
        assert_eq!(SuccPage::find_free_block(&p), Some(0));
        assert_eq!(SuccPage::free_blocks(&p), 30);
        for b in 0..BLOCKS_PER_PAGE {
            SuccPage::set_owner(&mut p, b, 5);
        }
        assert_eq!(SuccPage::find_free_block(&p), None);
        assert_eq!(SuccPage::free_blocks(&p), 0);
        assert_eq!(SuccPage::blocks_of(&p, 5).len(), 30);
    }

    #[test]
    fn blocks_do_not_alias_headers() {
        // Filling every entry slot must not disturb owners/used counts.
        let mut p = Page::new();
        for b in 0..BLOCKS_PER_PAGE {
            SuccPage::set_owner(&mut p, b, b as u32);
            SuccPage::set_used(&mut p, b, b % 16);
        }
        for b in 0..BLOCKS_PER_PAGE {
            for k in 0..ENTRIES_PER_BLOCK {
                SuccPage::set_entry(&mut p, b, k, SuccEntry::plain((b * 31 + k) as u32));
            }
        }
        for b in 0..BLOCKS_PER_PAGE {
            assert_eq!(SuccPage::owner(&p, b), Some(b as u32));
            assert_eq!(SuccPage::used(&p, b), b % 16);
            for k in 0..ENTRIES_PER_BLOCK {
                assert_eq!(
                    SuccPage::entry(&p, b, k),
                    SuccEntry::plain((b * 31 + k) as u32)
                );
            }
        }
    }
}
