//! The byte [`Medium`] under the accounting core, and the [`Catalog`] the
//! core keeps above it.
//!
//! A medium moves page images by id and nothing else: it does not count,
//! trace, consult a fault plan or know which file a page belongs to. All
//! of that lives once, in [`crate::Store`]. Adding a backend means
//! implementing the methods here (the shape of a minimal page store:
//! get bytes, put bytes, allocate, flush), each medium keeping its own
//! integrity format in exactly one place.

use crate::disk::{FileId, FileKind};
use crate::error::{StorageError, StorageResult};
use crate::frozen::FrozenPageSet;
use crate::page::{Page, PageId};

/// Where page images physically live.
///
/// The core calls a medium only with page ids it has bounds-checked
/// against its catalog, and [`zero`](Medium::zero)es an id before it is
/// ever read or written.
pub trait Medium: Send {
    /// Copies the stored image of `pid` into `out`. With `verify` set (a
    /// fault plan is armed) the image must be checked against the
    /// integrity data recorded when it was written; a medium that cannot
    /// trust its bytes verifies always. Damage is reported as
    /// [`StorageError::ChecksumMismatch`].
    fn read(&mut self, pid: PageId, out: &mut Page, verify: bool) -> StorageResult<()>;

    /// Stores `data` as the image of `pid`. With `tear_at` set the write
    /// is torn: the byte at that offset is stored flipped while the
    /// integrity data still describes `data`, and the call succeeds.
    fn write(&mut self, pid: PageId, data: &Page, tear_at: Option<usize>) -> StorageResult<()>;

    /// Makes `pid` a valid all-zero page, growing the medium by one page
    /// when `pid` is its current length.
    fn zero(&mut self, pid: PageId) -> StorageResult<()>;

    /// Durability point: persists the page images and `catalog` so a
    /// reopen recovers both. Nothing to do for a medium without a reopen.
    fn sync(&mut self, _catalog: &Catalog) -> StorageResult<()> {
        Ok(())
    }

    /// Short stable backend name (`"sim"`, `"file"`, `"frozen"`).
    fn name(&self) -> &'static str;

    /// The page set this medium lends, if it is one whose images are in
    /// memory and can never change: the core then admits a read without
    /// moving the bytes, and the reader borrows the image in place for
    /// as long as it needs it. Every other medium lends nothing and
    /// readers keep their own copy.
    fn lent(&self) -> Option<&FrozenPageSet> {
        None
    }

    /// Refuses mutation: a read-only medium answers
    /// [`StorageError::ReadOnlyStore`] and the core then leaves both the
    /// medium and its catalog untouched.
    fn writable(&self) -> StorageResult<()> {
        Ok(())
    }
}

/// Owner of a page slot that no file holds (a slot a capture skipped,
/// frozen or thawed); never a valid index into the file table.
pub(crate) const NO_FILE: FileId = FileId(u32::MAX);

#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct FileMeta {
    pub(crate) kind: FileKind,
    pub(crate) pages: Vec<PageId>,
}

/// The store's bookkeeping: the file table, the page→file map, the
/// LIFO free-page list and the pages held back from it until the next
/// sync. Pure data, identical on every medium, which is what makes
/// page-id streams (and so trace digests) backend-invariant.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Catalog {
    /// Indexed by [`FileId`]. A dropped file stays, with no pages.
    pub(crate) files: Vec<FileMeta>,
    /// Indexed by [`PageId`]: the file that owns (or last owned) the slot.
    pub(crate) page_file: Vec<FileId>,
    /// Released slots; allocation reuses from the end.
    pub(crate) free_pages: Vec<PageId>,
    /// Released slots that the last synced catalog still gives to a
    /// file, in the order they were released. A sync records them as
    /// free and, once it is durable, appends them to `free_pages`;
    /// until then none is reused, so the synced catalog's files keep
    /// their images.
    pub(crate) held_pages: Vec<PageId>,
}

impl Catalog {
    /// The released page slots, oldest first; the last is reused next.
    pub fn free_pages(&self) -> &[PageId] {
        &self.free_pages
    }

    /// Released slots that wait for the next sync before they can be
    /// reused, in the order they were released.
    pub fn held_pages(&self) -> &[PageId] {
        &self.held_pages
    }

    /// The entry of `file`; [`StorageError::UnknownFile`] for an id this
    /// catalog never issued.
    pub(crate) fn file(&self, file: FileId) -> StorageResult<&FileMeta> {
        self.files
            .get(file.0 as usize)
            .ok_or(StorageError::UnknownFile(file.0))
    }

    /// The file that owns slot `pid`.
    pub(crate) fn page_file(&self, pid: PageId) -> StorageResult<FileId> {
        match self.page_file.get(pid.index()) {
            Some(&file) if file != NO_FILE => Ok(file),
            _ => Err(StorageError::PageOutOfBounds(pid)),
        }
    }

    /// The kind transfers of `pid` are charged to; doubles as the bounds
    /// check of every transfer.
    pub(crate) fn page_kind(&self, pid: PageId) -> StorageResult<FileKind> {
        Ok(self.files[self.page_file(pid)?.0 as usize].kind)
    }
}
