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
use std::ops::Range;

/// Blocks per successor page.
pub const BLOCKS_PER_PAGE: usize = 30;
/// Entry slots per block.
pub const ENTRIES_PER_BLOCK: usize = 15;
/// Successors per page (the paper's 450).
pub const SUCCESSORS_PER_PAGE: usize = BLOCKS_PER_PAGE * ENTRIES_PER_BLOCK;

const OWNERS_OFF: usize = 0;
const USED_OFF: usize = OWNERS_OFF + BLOCKS_PER_PAGE * 4;
const ENTRIES_OFF: usize = 152;

/// Byte range of slots `k..k + count` of block `b`.
#[inline]
fn slots(b: usize, k: usize, count: usize) -> Range<usize> {
    debug_assert!(b < BLOCKS_PER_PAGE && k + count <= ENTRIES_PER_BLOCK);
    let off = ENTRIES_OFF + (b * ENTRIES_PER_BLOCK + k) * 4;
    off..off + count * 4
}

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

/// One entry slot as stored: the biased, sign-tagged `i32`, undecoded.
///
/// A list is read as words ([`SuccPage::words`]) and each word is decoded
/// where it is classified, so a scan moves 4 bytes per entry and a union
/// that needs only the node id never builds a [`SuccEntry`].
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SuccWord(i32);

impl SuccWord {
    /// The node id (bias removed, tag ignored).
    #[inline]
    pub fn node(self) -> u32 {
        debug_assert!(self.0 != 0, "entry slot read before being written");
        self.0.unsigned_abs() - 1
    }

    /// Whether the entry was stored negated.
    #[inline]
    pub fn is_tagged(self) -> bool {
        self.0 < 0
    }

    /// The decoded entry.
    #[inline]
    pub fn entry(self) -> SuccEntry {
        SuccEntry {
            node: self.node(),
            tagged: self.is_tagged(),
        }
    }
}

/// A word equals the entry it decodes to, so a buffer of words compares
/// with a list of entries.
impl PartialEq<SuccEntry> for SuccWord {
    fn eq(&self, e: &SuccEntry) -> bool {
        self.entry() == *e
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
        SuccWord(page.get_i32(slots(b, k, 1).start)).entry()
    }

    /// The first `used` slots of block `b` as stored words, in one pass
    /// over their bytes; the caller decodes them.
    #[inline]
    pub fn words(page: &Page, b: usize, used: usize) -> impl Iterator<Item = SuccWord> + '_ {
        page.bytes()[slots(b, 0, used)]
            .chunks_exact(4)
            .map(|raw| SuccWord(i32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]])))
    }

    /// Writes `entries` into block `b` from slot `k` on, in one pass over
    /// the slots' bytes, up to the block's end, then sets the used count
    /// to the slot after the last one written.
    #[inline]
    pub fn fill(page: &mut Page, b: usize, k: usize, entries: impl Iterator<Item = SuccEntry>) {
        let mut used = k;
        let free = &mut page.bytes_mut()[slots(b, k, ENTRIES_PER_BLOCK - k)];
        for (raw, e) in free.chunks_exact_mut(4).zip(entries) {
            raw.copy_from_slice(&Self::encode(e).to_le_bytes());
            used += 1;
        }
        Self::set_used(page, b, used);
    }

    /// Copies block `b`'s used entries into `raw` as stored, bias and tags
    /// included, and returns the used count: with [`SuccPage::place_block`]
    /// a block moves between pages as bytes, never decoded.
    #[inline]
    pub fn read_block(page: &Page, b: usize, raw: &mut [u8; ENTRIES_PER_BLOCK * 4]) -> usize {
        let used = Self::used(page, b);
        raw[..used * 4].copy_from_slice(&page.bytes()[slots(b, 0, used)]);
        used
    }

    /// Gives block `b` to `owner`, writes `raw` (whole entries, as
    /// [`SuccPage::read_block`] copied them) into its first slots and sets
    /// the used count to match.
    #[inline]
    pub fn place_block(page: &mut Page, b: usize, owner: u32, raw: &[u8]) {
        let used = raw.len() / 4;
        Self::set_owner(page, b, owner);
        Self::set_used(page, b, used);
        page.bytes_mut()[slots(b, 0, used)].copy_from_slice(raw);
    }

    #[inline]
    fn encode(e: SuccEntry) -> i32 {
        let biased = (e.node + 1) as i32;
        if e.tagged {
            -biased
        } else {
            biased
        }
    }

    /// Writes entry `k` of block `b`.
    #[inline]
    pub fn set_entry(page: &mut Page, b: usize, k: usize, e: SuccEntry) {
        page.put_i32(slots(b, k, 1).start, Self::encode(e));
    }

    /// Clears the tag of entry `k` of block `b`, in place.
    #[inline]
    pub fn untag_entry(page: &mut Page, b: usize, k: usize) {
        let off = slots(b, k, 1).start;
        page.put_i32(off, page.get_i32(off).wrapping_abs());
    }

    /// Index of the first free block on the page, if any.
    pub fn find_free_block(page: &Page) -> Option<usize> {
        (0..BLOCKS_PER_PAGE).find(|&b| Self::owner(page, b).is_none())
    }

    /// The page's free blocks as a mask: bit `b` set iff block `b` is free.
    pub fn free_mask(page: &Page) -> u32 {
        (0..BLOCKS_PER_PAGE)
            .filter(|&b| Self::owner(page, b).is_none())
            .fold(0, |mask, b| mask | 1 << b)
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
        assert_eq!(SuccPage::free_mask(&p), (1 << BLOCKS_PER_PAGE) - 1);
        for b in 0..BLOCKS_PER_PAGE {
            SuccPage::set_owner(&mut p, b, 5);
        }
        assert_eq!(SuccPage::find_free_block(&p), None);
        assert_eq!(SuccPage::free_mask(&p), 0);
        SuccPage::free_block(&mut p, 4);
        assert_eq!(SuccPage::free_mask(&p), 1 << 4);
    }

    #[test]
    fn blocks_do_not_alias_headers() {
        // Filling every entry slot must not disturb owners/used counts,
        // and a block moved to another page as bytes reads back the same.
        let mut p = Page::new();
        let e = |b: usize, k: usize| SuccEntry {
            node: (b * 31 + k) as u32,
            tagged: k % 3 == 0,
        };
        for b in 0..BLOCKS_PER_PAGE {
            SuccPage::set_owner(&mut p, b, b as u32);
            SuccPage::fill(&mut p, b, 0, (0..ENTRIES_PER_BLOCK + 1).map(|k| e(b, k)));
            assert_eq!(
                SuccPage::used(&p, b),
                ENTRIES_PER_BLOCK,
                "a fill stops at the block's end"
            );
            SuccPage::set_used(&mut p, b, b % 16);
        }
        let (mut moved, mut raw) = (Page::new(), [0; ENTRIES_PER_BLOCK * 4]);
        for b in 0..BLOCKS_PER_PAGE {
            assert_eq!(SuccPage::owner(&p, b), Some(b as u32));
            assert_eq!(SuccPage::used(&p, b), b % 16);
            for k in 0..ENTRIES_PER_BLOCK {
                assert_eq!(SuccPage::entry(&p, b, k), e(b, k));
            }
            let used = SuccPage::read_block(&p, b, &mut raw);
            SuccPage::place_block(&mut moved, 29 - b, 7, &raw[..used * 4]);
            assert_eq!(SuccPage::owner(&moved, 29 - b), Some(7));
            let read = SuccPage::words(&moved, 29 - b, used).map(SuccWord::entry);
            assert!(read.eq((0..used).map(|k| e(b, k))));
        }
    }
}
