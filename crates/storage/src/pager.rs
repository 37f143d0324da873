//! The [`Pager`] trait: how structures above the disk access pages.
//!
//! All relation scans, index probes and successor-list operations are
//! written against this trait. Running them over [`crate::DiskSim`]
//! directly makes every access a physical I/O (useful in tests and bulk
//! loads); running them over the buffer pool in `tc-buffer` gives the
//! paper's buffered behaviour, where only misses and dirty write-backs
//! reach the disk counters.

use crate::disk::FileId;
use crate::error::StorageResult;
use crate::page::{Page, PageId};

/// Page access abstraction shared by the direct disk and the buffer pool.
pub trait Pager {
    /// Runs `f` with read access to page `pid`.
    ///
    /// `f` is a generic parameter, not a trait object, so a buffer hit
    /// inlines into its caller; a `&mut |pg| ..` closure still fits.
    fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R>;

    /// Runs `f` with write access to page `pid`, marking it dirty.
    fn with_page_mut<R>(&mut self, pid: PageId, f: impl FnOnce(&mut Page) -> R)
        -> StorageResult<R>;

    /// Allocates a fresh page in `file`.
    ///
    /// A buffered pager may materialize the page only in memory; the
    /// physical write is charged when the page is evicted or flushed.
    fn alloc_page(&mut self, file: FileId) -> StorageResult<PageId>;

    /// Creates a new, empty file of the given kind.
    fn create_file(&mut self, kind: crate::disk::FileKind) -> FileId;

    /// Deletes `file`, releasing its pages for reuse. A buffered pager
    /// drops any resident copies (without write-back) first. Deletion is
    /// a catalog operation and charges no I/O.
    fn free_file(&mut self, file: FileId) -> StorageResult<()>;

    /// The pages of `file` in allocation order;
    /// [`crate::StorageError::UnknownFile`] for a file never created.
    ///
    /// Returned by value because a buffered pager cannot hand out a
    /// reference into the disk it wraps while also being borrowed mutably.
    fn file_page_ids(&self, file: FileId) -> StorageResult<Vec<PageId>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskSim, FileKind};

    // Exercise the trait from generic code, to ensure the
    // closure-parameter signatures stay usable there.
    fn write_then_read<P: Pager>(p: &mut P) -> StorageResult<u32> {
        let file = p.create_file(FileKind::Temp);
        let pid = p.alloc_page(file)?;
        p.with_page_mut(pid, |pg: &mut Page| pg.put_u32(4, 99))?;
        p.with_page(pid, |pg: &Page| pg.get_u32(4))
    }

    #[test]
    fn trait_usable_generically() {
        let mut d = DiskSim::new();
        assert_eq!(write_then_read(&mut d).unwrap(), 99);
    }
}
