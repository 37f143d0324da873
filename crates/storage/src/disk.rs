//! The simulated disk: page-granular storage with full I/O accounting.
//!
//! The paper's experiments run against a *simulated* buffer manager that
//! records the number of page I/Os (§6.1); wall-clock time is then compared
//! with an estimated I/O time of 20 ms per page transfer. [`DiskSim`] is
//! that disk: the accounting core ([`Store`]) over page images held in
//! memory ([`Mem`]). The vocabulary the core counts in lives here too:
//! [`FileKind`], [`FileId`] and [`DiskStats`], broken down by file kind
//! so that the harness can report relation vs. index vs. successor-list
//! traffic separately.

use crate::error::{StorageError, StorageResult};
use crate::medium::Medium;
use crate::page::{Page, PageId};
use crate::store::Store;

/// What role a file plays in the study's storage layout: the trace
/// vocabulary's [`tc_trace::Kind`], so a page transfer's event names the
/// same value the catalog holds.
pub use tc_trace::Kind as FileKind;

/// Identifier of a file (an extent of pages) on a page store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FileId(pub u32);

/// Physical I/O counters, overall and broken down by [`FileKind`]: the
/// trace vocabulary's [`tc_trace::DiskStats`], whose one fold over the
/// store's events is how the store counts.
pub use tc_trace::DiskStats;

/// Milliseconds charged per physical page I/O when estimating elapsed
/// I/O time. The paper established ~20 ms per page I/O for its RZ24 disk
/// by separate measurement and multiplies the simulated I/O count by it
/// (§6.1).
pub const MS_PER_IO: f64 = 20.0;

/// The in-memory medium: page images plus the [`Page::checksum`] of
/// each (the one function all media use; the file medium keeps it in
/// its slot header), recorded on write and verified on read while a
/// fault plan is armed (silent corruption is detected, never absorbed).
///
/// The same table is a [`crate::FrozenPageSet`]'s, so a capture thaws
/// into a `Mem` and freezes back out of one by moving it.
#[derive(Default)]
pub struct Mem {
    /// Indexed by [`PageId`]: the image and the checksum recorded for it,
    /// or `None` for a slot a capture skipped.
    pub(crate) images: Vec<Option<(Page, u64)>>,
}

impl Mem {
    /// The image of `pid` with its recorded checksum.
    #[inline]
    pub(crate) fn image(&self, pid: PageId) -> StorageResult<&(Page, u64)> {
        match self.images.get(pid.index()) {
            Some(Some(image)) => Ok(image),
            _ => Err(StorageError::PageOutOfBounds(pid)),
        }
    }

    /// [`Medium::read`] without the `&mut`: a frozen view reads the same
    /// table.
    #[inline]
    pub(crate) fn copy_out(&self, pid: PageId, out: &mut Page, verify: bool) -> StorageResult<()> {
        let (image, sum) = self.image(pid)?;
        out.bytes_mut().copy_from_slice(image.bytes());
        verify_image(image, verify.then_some(*sum), pid)
    }
}

/// Checks `image` against the checksum `recorded` for it, if one is
/// given. Shared by the in-memory media.
pub(crate) fn verify_image(image: &Page, recorded: Option<u64>, pid: PageId) -> StorageResult<()> {
    if let Some(stored) = recorded {
        let computed = image.checksum();
        if computed != stored {
            return Err(StorageError::ChecksumMismatch {
                pid,
                stored,
                computed,
            });
        }
    }
    Ok(())
}

impl Medium for Mem {
    fn read(&mut self, pid: PageId, out: &mut Page, verify: bool) -> StorageResult<()> {
        self.copy_out(pid, out, verify)
    }

    fn write(&mut self, pid: PageId, data: &Page, tear_at: Option<usize>) -> StorageResult<()> {
        let Some(Some((page, sum))) = self.images.get_mut(pid.index()) else {
            return Err(StorageError::PageOutOfBounds(pid));
        };
        // Record the checksum of the bytes the writer intended; a torn
        // write leaves it stale so verification catches the corruption.
        *sum = data.checksum();
        let dst = page.bytes_mut();
        dst.copy_from_slice(data.bytes());
        if let Some(off) = tear_at {
            dst[off] ^= 0xFF;
        }
        Ok(())
    }

    fn zero(&mut self, pid: PageId) -> StorageResult<()> {
        match self.images.get_mut(pid.index()) {
            Some(Some((page, sum))) => {
                page.clear();
                *sum = Page::ZERO_CHECKSUM;
            }
            Some(skipped) => *skipped = Some((Page::new(), Page::ZERO_CHECKSUM)),
            None => self.images.push(Some((Page::new(), Page::ZERO_CHECKSUM))),
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "sim"
    }
}

/// A simulated disk.
///
/// Pages live in memory but every [`PageStore::read_page`] /
/// [`PageStore::write_page`] is counted as a physical transfer. Higher
/// layers access pages through the buffer pool, so these counters reflect
/// buffer misses and dirty-page write-backs — the paper's primary cost
/// metric. Durability is not modeled: `sync` does nothing.
///
/// [`PageStore::read_page`]: crate::PageStore::read_page
/// [`PageStore::write_page`]: crate::PageStore::write_page
pub type DiskSim = Store<Mem>;

impl DiskSim {
    /// Creates an empty disk.
    pub fn new() -> DiskSim {
        Store::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;
    use crate::store::PageStore;

    #[test]
    fn stats_since_subtracts() {
        let mut d = DiskSim::new();
        let f = d.new_file(FileKind::Temp);
        let p = d.alloc(f).unwrap();
        let page = Page::new();
        d.write_page(p, &page).unwrap();
        let snap = d.stats().clone();
        let mut out = Page::new();
        d.read_page(p, &mut out).unwrap();
        d.read_page(p, &mut out).unwrap();
        let delta = d.stats().since(&snap);
        assert_eq!(delta.reads, 2);
        assert_eq!(delta.writes, 0);
        assert_eq!(delta.reads_by_kind[FileKind::Temp.idx()], 2);
    }

    #[test]
    fn direct_pager_charges_every_access() {
        // The Pager surface is the blanket impl over PageStore — one
        // trait-object path, no inherent shims.
        let mut d = DiskSim::new();
        let f = d.create_file(FileKind::Temp);
        let p = d.alloc_page(f).unwrap();
        let mut sink = 0u32;
        d.with_page_mut(p, |pg: &mut Page| pg.put_u32(0, 5))
            .unwrap();
        d.with_page(p, |pg: &Page| sink = pg.get_u32(0)).unwrap();
        assert_eq!(sink, 5);
        // with_page_mut = read + write, with_page = read.
        assert_eq!(d.stats().reads, 2);
        assert_eq!(d.stats().writes, 1);
    }
}
