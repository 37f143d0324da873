//! Value-page layout: bare values, each in the fewest whole bytes its
//! file's bound needs.
//!
//! The paper stops carrying a list's source once tuples have become
//! successor lists (§5.1: 256 eight-byte tuples a page for the input
//! relation, bare successors after restructuring), because the bytes a
//! tuple takes set the pages every scan moves. A file that is only ever
//! read *by position* — the caller knows from a table of its own which
//! slots it wants — has no key worth storing either, so its pages hold
//! values alone, and no value takes more bytes than the largest value
//! its file may hold: a file declares the bound its values lie below,
//! and each value is stored little-endian in the fewest whole bytes, 1
//! to 4, that hold `bound − 1`. A closure over 2,000 nodes spends 2
//! bytes a successor, 1,024 to a page; a file that may hold any `u32`
//! keeps 4, 512 to a page. There is no on-page header, a page holds
//! `⌊2048 / width⌋` slots (two bytes of a 3-byte page stay zero), and
//! the number of valid values on the last page is tracked by the owning
//! [`crate::ValueFile`].
//!
//! There is one codec: a slot is the low `width` bytes of the value's
//! little-endian image, decoded by a straight copy per width with no
//! branch per value, and the 4-byte width is the plain `u32` array.

use crate::page::{Page, PAGE_SIZE};

/// Calls `f::<W>(args)` with `W` the width: the one branch on the width
/// a call makes, so the codec below runs with its width a constant.
macro_rules! at_width {
    ($width:expr, $f:ident($($arg:expr),*)) => {
        match $width {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            _ => $f::<4>($($arg),*),
        }
    };
}

/// Slots a page holds at each width, indexed by the width in bytes.
const VALUES_PER_PAGE: [usize; 5] = [0, PAGE_SIZE, PAGE_SIZE / 2, PAGE_SIZE / 3, PAGE_SIZE / 4];

/// The slot layout of one value file: how many bytes each value takes.
///
/// Slots are dense: slot `i` occupies bytes `[w·i, w·i + w)`, the low
/// `w` bytes of a little-endian `u32`, `w` the width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValuePage {
    width: usize,
}

impl ValuePage {
    /// The layout of a file whose values all lie below `bound`: the
    /// fewest whole bytes, 1 to 4, that hold `bound − 1`. A bound past
    /// `u32::MAX` admits every `u32`, and takes 4.
    pub fn for_bound(bound: u64) -> ValuePage {
        let bits = 64 - bound.saturating_sub(1).leading_zeros() as usize;
        ValuePage {
            width: bits.div_ceil(8).clamp(1, 4),
        }
    }

    /// Values a page holds: `⌊2048 / width⌋`.
    pub fn per_page(self) -> usize {
        VALUES_PER_PAGE[self.width]
    }

    /// The page and slot of position `at` in a file of this layout:
    /// `(at / p, at % p)`, `p` = [`ValuePage::per_page`].
    #[inline]
    pub fn locate(self, at: usize) -> (usize, usize) {
        at_width!(self.width, locate_as(at))
    }

    /// Reads the value in slot `slot`.
    #[inline]
    pub fn get(self, page: &Page, slot: usize) -> u32 {
        debug_assert!(slot < self.per_page());
        at_width!(self.width, get_as(page.bytes(), slot))
    }

    /// Appends slots `from..to` to `out`, in one pass over the page
    /// bytes.
    pub fn read(self, page: &Page, from: usize, to: usize, out: &mut Vec<u32>) {
        debug_assert!(from <= to && to <= self.per_page());
        let bytes = &page.bytes()[from * self.width..to * self.width];
        at_width!(self.width, read_as(bytes, out))
    }

    /// Writes `values` into the slots starting at `from`, in one pass
    /// over the page bytes. Each value must lie below the file's bound:
    /// the bytes above the width are not stored.
    pub fn write(self, page: &mut Page, from: usize, values: &[u32]) {
        debug_assert!(from + values.len() <= self.per_page());
        let bytes = &mut page.bytes_mut()[from * self.width..(from + values.len()) * self.width];
        at_width!(self.width, write_as(bytes, values))
    }
}

/// [`ValuePage::locate`] at width `W`: a division by a constant.
#[inline(always)]
fn locate_as<const W: usize>(at: usize) -> (usize, usize) {
    let per_page = VALUES_PER_PAGE[W];
    (at / per_page, at % per_page)
}

/// Decodes one `W`-byte slot: its bytes, zero-extended, as a
/// little-endian `u32`.
#[inline(always)]
fn decode<const W: usize>(slot: &[u8]) -> u32 {
    let mut le = [0u8; 4];
    le[..W].copy_from_slice(slot);
    u32::from_le_bytes(le)
}

/// [`ValuePage::get`] at width `W`.
#[inline(always)]
fn get_as<const W: usize>(bytes: &[u8], slot: usize) -> u32 {
    decode::<W>(&bytes[slot * W..slot * W + W])
}

/// [`ValuePage::read`] at width `W`: a straight copy per slot.
#[inline(always)]
fn read_as<const W: usize>(bytes: &[u8], out: &mut Vec<u32>) {
    out.extend(bytes.chunks_exact(W).map(decode::<W>));
}

/// Encodes `values` as `W`-byte slots: the low `W` bytes of each
/// little-endian image.
#[inline(always)]
fn write_as<const W: usize>(bytes: &mut [u8], values: &[u32]) {
    for (slot, v) in bytes.chunks_exact_mut(W).zip(values) {
        slot.copy_from_slice(&v.to_le_bytes()[..W]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_is_the_fewest_bytes_below_the_bound() {
        for (bound, width) in [
            (0, 1),
            (1, 1),
            (256, 1),
            (257, 2),
            (1 << 16, 2),
            ((1 << 16) + 1, 3),
            (1 << 24, 3),
            ((1 << 24) + 1, 4),
            (u64::from(u32::MAX), 4),
            (1 << 32, 4),
            (u64::MAX, 4),
        ] {
            let layout = ValuePage::for_bound(bound);
            assert_eq!(layout, ValuePage { width }, "bound {bound}");
            assert_eq!(layout.per_page(), PAGE_SIZE / width, "bound {bound}");
        }
        assert_eq!(ValuePage::for_bound(1 << 32).per_page(), 512);
    }

    #[test]
    fn round_trip_at_both_ends() {
        for (bound, top) in [(256, 255), (65_536, 65_535), (1 << 24, 0xFF_FFFF)] {
            let layout = ValuePage::for_bound(bound);
            let last = layout.per_page() - 1;
            let mut p = Page::new();
            layout.write(&mut p, 0, &[10, 11]);
            layout.write(&mut p, last - 1, &[200, top]);
            assert_eq!(layout.get(&p, 1), 11);
            assert_eq!(layout.get(&p, last), top);
            let mut out = vec![7];
            layout.read(&p, last - 2, last + 1, &mut out);
            assert_eq!(out, [7, 0, 200, top], "bound {bound}");
            layout.read(&p, 3, 3, &mut out);
            assert_eq!(out.len(), 4, "an empty range reads nothing");
        }
        let layout = ValuePage::for_bound(1 << 32);
        let mut p = Page::new();
        layout.write(&mut p, 510, &[20_000, u32::MAX]);
        assert_eq!(layout.get(&p, 511), u32::MAX);
        assert_eq!(p.get_u32(510 * 4), 20_000, "the widest slot is a plain u32");
    }
}
