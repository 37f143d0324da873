//! Frozen page images and the read-only [`FrozenStore`] they back.
//!
//! A query service wants many sessions reading the *same* closed
//! database concurrently without contending on pool or store state. The
//! split here makes that safe by construction:
//!
//! * [`FrozenPageSet`] — an immutable capture of the page images of a
//!   chosen set of files, taken once through the ordinary
//!   [`PageStore::read_page`] path (so a capture behaves identically on
//!   every medium). Shared behind an [`Arc`]; never mutated again.
//! * [`FrozenStore`] — the accounting core over one such `Arc`. Each
//!   serving session owns its *own* `FrozenStore` (and its own buffer
//!   pool above it), with private [`crate::DiskStats`], tracer and fault
//!   plan — reads never touch shared mutable state, so
//!   per-session counters are deterministic at any worker count. All
//!   mutations fail with [`StorageError::ReadOnlyStore`].
//!
//! Reads are counted, verified and traced by the same code as a
//! [`crate::DiskSim`] read, so a served query's page accounting is
//! bit-compatible with a direct engine run over the same pages.
//!
//! Because the images can never change and are already in memory, this
//! is the one medium that *lends* them ([`Medium::lent`]): a reader
//! above the store — the buffer pool — has each read admitted by that
//! same code ([`PageStore::admit_read`] with no destination: bounds,
//! fault plan, verification, charge, event) and then borrows the image
//! through [`FrozenPageSet::page`] instead of receiving a 2 KB copy.
//!
//! A set that is not shared yet can still grow: [`FrozenPageSet::thaw`]
//! turns it into a writable [`DiskSim`] over the same page ids and
//! catalog, and [`FrozenPageSet::freeze`] turns that store back into a
//! set. The image table is the same [`Mem`] on both sides, so neither
//! step copies a page; a snapshot adds files it derives from the
//! captured ones this way, without writing them to the store it was
//! captured from.

use crate::disk::{DiskSim, FileId, Mem};
use crate::error::{StorageError, StorageResult};
use crate::medium::{Catalog, FileMeta, Medium, NO_FILE};
use crate::page::{Page, PageId};
use crate::store::{PageStore, Store};
use std::sync::Arc;

/// An immutable capture of the page images of a set of files.
///
/// Indexed by the *original* [`PageId`]s and [`FileId`]s of the source
/// store, so catalogs captured alongside (relation descriptors, indexes,
/// label files) keep working unchanged against a [`FrozenStore`]. A file
/// that was not captured looks like a dropped one: its kind, no pages.
pub struct FrozenPageSet {
    /// Sparse: populated for captured pages only, each image with the
    /// [`Page::checksum`] recorded at capture time.
    mem: Mem,
    catalog: Arc<Catalog>,
}

impl FrozenPageSet {
    /// Captures the current images of every page of `files` from
    /// `store`, reading through the standard [`PageStore::read_page`]
    /// path. The reads are charged to `store`'s counters; callers that
    /// treat freezing as setup (not serving) should reset those
    /// counters afterwards, as database builds do. A file id `store`
    /// never issued is [`StorageError::UnknownFile`].
    pub fn capture(store: &mut dyn PageStore, files: &[FileId]) -> StorageResult<FrozenPageSet> {
        let mut mem = Mem::default();
        mem.images.resize_with(store.page_count(), || None);
        let mut catalog = Catalog::default();
        catalog.page_file.resize(mem.images.len(), NO_FILE);
        for &file in files {
            let pages: Vec<PageId> = store.file_pages(file)?.to_vec();
            for id in catalog.files.len() as u32..=file.0 {
                catalog.files.push(FileMeta {
                    kind: store.file_kind(FileId(id))?,
                    pages: Vec::new(),
                });
            }
            for &pid in &pages {
                let mut image = Page::new();
                store.read_page(pid, &mut image)?;
                let checksum = image.checksum();
                let slot = mem
                    .images
                    .get_mut(pid.index())
                    .ok_or(StorageError::PageOutOfBounds(pid))?;
                *slot = Some((image, checksum));
                catalog.page_file[pid.index()] = file;
            }
            catalog.files[file.0 as usize].pages = pages;
        }
        Ok(FrozenPageSet {
            mem,
            catalog: Arc::new(catalog),
        })
    }

    /// A writable in-memory store over this set's images, page ids and
    /// catalog, with fresh counters. A slot the capture skipped stays
    /// unowned, so it reads as [`StorageError::PageOutOfBounds`]; the
    /// free list is empty, so a new file's pages land past every slot
    /// the source store had. Moves the images, copies none.
    pub fn thaw(self) -> DiskSim {
        Store::with_catalog(self.mem, self.catalog)
    }

    /// Freezes `store` — typically a thawed set that gained files — into
    /// a set, moving its images and catalog rather than copying them.
    pub fn freeze(store: DiskSim) -> FrozenPageSet {
        let (mem, catalog) = store.into_parts();
        FrozenPageSet { mem, catalog }
    }

    /// Number of captured pages.
    pub fn page_count(&self) -> usize {
        self.catalog.files.iter().map(|f| f.pages.len()).sum()
    }

    /// The captured image of `pid` with its recorded checksum.
    pub(crate) fn image(&self, pid: PageId) -> StorageResult<&(Page, u64)> {
        self.mem.image(pid)
    }

    /// The captured image of `pid`, if it was captured.
    #[inline]
    pub fn page(&self, pid: PageId) -> Option<&Page> {
        self.image(pid).ok().map(|(image, _)| image)
    }
}

/// The read-only medium: a shared [`FrozenPageSet`].
pub struct Frozen(Arc<FrozenPageSet>);

impl Medium for Frozen {
    fn read(&mut self, pid: PageId, out: &mut Page, verify: bool) -> StorageResult<()> {
        self.0.mem.copy_out(pid, out, verify)
    }

    fn lent(&self) -> Option<&FrozenPageSet> {
        Some(&self.0)
    }

    fn write(&mut self, _: PageId, _: &Page, _: Option<usize>) -> StorageResult<()> {
        Err(StorageError::ReadOnlyStore)
    }

    fn zero(&mut self, _: PageId) -> StorageResult<()> {
        Err(StorageError::ReadOnlyStore)
    }

    fn name(&self) -> &'static str {
        "frozen"
    }

    fn writable(&self) -> StorageResult<()> {
        Err(StorageError::ReadOnlyStore)
    }
}

/// A read-only [`PageStore`] over a shared [`FrozenPageSet`].
///
/// Cheap to construct (two `Arc` clones plus zeroed counters): serving
/// sessions open one per client. Every read is counted and traced like
/// a [`crate::DiskSim`] read; every mutation fails with
/// [`StorageError::ReadOnlyStore`], and a page that was not captured is
/// [`StorageError::PageOutOfBounds`].
pub type FrozenStore = Store<Frozen>;

impl FrozenStore {
    /// Opens a read-only view over `pages` with fresh counters.
    pub fn new(pages: Arc<FrozenPageSet>) -> FrozenStore {
        let catalog = Arc::clone(&pages.catalog);
        Store::with_catalog(Frozen(pages), catalog)
    }

    /// The shared page set this store reads.
    pub fn pages(&self) -> &Arc<FrozenPageSet> {
        &self.medium().0
    }
}

// Sessions ship `FrozenStore`s across worker threads and share one
// `FrozenPageSet` among all of them; a thread-bound field anywhere in
// here must fail at compile time, not at serve time.
const _: fn() = || {
    fn sendable<T: Send>() {}
    fn shareable<T: Sync>() {}
    sendable::<FrozenStore>();
    sendable::<FrozenPageSet>();
    shareable::<FrozenPageSet>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskSim, FileKind};
    use crate::fault::{FaultConfig, FaultPlan};
    use crate::relation::RelationFile;
    use crate::values::ValueFile;

    fn frozen_fixture() -> (Arc<FrozenPageSet>, RelationFile) {
        let mut disk = DiskSim::new();
        let arcs: Vec<(u32, u32)> = (0..6000).map(|i| (i / 3, i)).collect();
        let rel = RelationFile::bulk_load(&mut disk, FileKind::Relation, &arcs).unwrap();
        let set = FrozenPageSet::capture(&mut disk, &[rel.file_id()]).unwrap();
        (Arc::new(set), rel)
    }

    #[test]
    fn capture_preserves_images_and_catalog() {
        let (set, rel) = frozen_fixture();
        assert_eq!(set.page_count(), rel.page_count());
        let mut store = FrozenStore::new(set);
        let scanned = rel.scan(&mut store).unwrap();
        assert_eq!(scanned.len(), 6000);
        assert_eq!(scanned[5], (1, 5));
        // Every page the scan touched was charged as one read.
        assert_eq!(store.stats().reads as usize, rel.page_count());
        assert_eq!(
            store.stats().reads_by_kind[FileKind::Relation.idx()] as usize,
            rel.page_count()
        );
    }

    #[test]
    fn sessions_count_independently() {
        let (set, rel) = frozen_fixture();
        let mut a = FrozenStore::new(Arc::clone(&set));
        let mut b = FrozenStore::new(set);
        rel.scan(&mut a).unwrap();
        assert!(a.stats().reads > 0);
        assert_eq!(b.stats().reads, 0);
        rel.scan(&mut b).unwrap();
        assert_eq!(a.stats().reads, b.stats().reads);
    }

    #[test]
    fn thaw_freeze_round_trips() {
        // A captured relation between two files the capture skips, one
        // of them dropped so the source has a free list to ignore.
        let mut disk = DiskSim::new();
        let skipped = disk.new_file(FileKind::Temp);
        disk.alloc(skipped).unwrap();
        let arcs: Vec<(u32, u32)> = (0..3000).map(|i| (i / 4, i)).collect();
        let rel = RelationFile::bulk_load(&mut disk, FileKind::Relation, &arcs).unwrap();
        let dropped = disk.new_file(FileKind::Output);
        disk.alloc(dropped).unwrap();
        disk.drop_file(dropped).unwrap();
        let source_slots = disk.page_count();
        let set = FrozenPageSet::capture(&mut disk, &[rel.file_id()]).unwrap();
        let before = set.catalog.as_ref().clone();
        let images: Vec<(PageId, Page, u64)> = rel
            .pages()
            .iter()
            .map(|&pid| {
                let (image, sum) = set.image(pid).unwrap();
                (pid, image.clone(), *sum)
            })
            .collect();

        let mut thawed = set.thaw();
        let hole = PageId(0);
        assert_eq!(
            thawed.read_page(hole, &mut Page::new()),
            Err(StorageError::PageOutOfBounds(hole))
        );
        let values: Vec<u32> = (0..1300).map(|i| i * 7 + 1).collect();
        let file = ValueFile::bulk_load(&mut thawed, FileKind::Index, &values).unwrap();
        assert!(
            file.pages().iter().all(|p| p.index() >= source_slots),
            "a new page reused a slot of the source: {:?}",
            file.pages()
        );
        let set = FrozenPageSet::freeze(thawed);

        // The captured images and checksums are the ones captured.
        for (pid, image, sum) in &images {
            let (now, now_sum) = set.image(*pid).unwrap();
            assert!(now == image, "image of {pid:?} changed");
            assert_eq!(now_sum, sum, "checksum of {pid:?} changed");
        }
        // The catalog gained the new file and nothing else.
        let after = set.catalog.as_ref();
        assert_eq!(after.files[..before.files.len()], before.files[..]);
        assert_eq!(after.files.len(), before.files.len() + 1);
        assert_eq!(after.files[file.file_id().0 as usize].pages, file.pages());
        let owners = &after.page_file;
        assert_eq!(owners[..before.page_file.len()], before.page_file[..]);
        assert!(owners[before.page_file.len()..]
            .iter()
            .all(|&f| f == file.file_id()));
        assert!(after.free_pages.is_empty());
        assert_eq!(set.page_count(), rel.page_count() + file.page_count());

        // Skipped slots stay out of bounds; the new file reads back with
        // every read verified against its recorded checksum.
        let mut store = FrozenStore::new(Arc::new(set));
        store.set_fault_plan(FaultPlan::new(FaultConfig::new(3)));
        for hole in [hole, PageId(source_slots as u32 - 1)] {
            assert_eq!(
                store.read_page(hole, &mut Page::new()),
                Err(StorageError::PageOutOfBounds(hole))
            );
        }
        let mut out = Vec::new();
        file.read_range(&mut store, 0, values.len(), &mut out)
            .unwrap();
        assert_eq!(out, values);
        assert_eq!(rel.scan(&mut store).unwrap(), arcs);
        assert_eq!(store.stats().reads as usize, store.pages().page_count());
    }
}
