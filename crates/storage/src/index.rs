//! Sparse clustered index over a [`RelationFile`].
//!
//! One key per data page (the first clustering key on that page), packed
//! into [`crate::layout::IndexPage`]s. A probe binary-searches the index
//! to find the contiguous range of data pages that can contain a key; the
//! index pages it touches are charged through the pager like any other
//! page (in practice the index is a handful of pages and stays resident in
//! the buffer pool, matching the paper's assumption that index access is
//! cheap).

use crate::disk::{FileId, FileKind};
use crate::error::StorageResult;
use crate::layout::index::{IndexPage, KEYS_PER_INDEX_PAGE};
use crate::page::{Page, PageId};
use crate::pager::Pager;
use crate::relation::RelationFile;
use crate::store::PageStore;

/// A sparse clustered index: maps a key to the data-page range holding it.
#[derive(Clone, Debug)]
pub struct ClusteredIndex {
    file: FileId,
    pages: Vec<PageId>,
    /// Number of keys (== number of data pages in the indexed relation).
    entries: usize,
}

impl ClusteredIndex {
    /// Builds the index for `rel`, writing index pages to a fresh file.
    /// Works against any [`PageStore`] backend.
    pub fn build<S: PageStore + ?Sized>(
        disk: &mut S,
        rel: &RelationFile,
    ) -> StorageResult<ClusteredIndex> {
        let file = disk.new_file(FileKind::Index);
        let keys = rel.first_keys();
        let mut pages = Vec::new();
        let mut page = Page::new();
        let mut slot = 0usize;
        for &k in keys {
            IndexPage::put(&mut page, slot, k);
            slot += 1;
            if slot == KEYS_PER_INDEX_PAGE {
                let pid = disk.alloc(file)?;
                disk.write_page(pid, &page)?;
                pages.push(pid);
                page.clear();
                slot = 0;
            }
        }
        if slot > 0 {
            let pid = disk.alloc(file)?;
            disk.write_page(pid, &page)?;
            pages.push(pid);
        }
        Ok(ClusteredIndex {
            file,
            pages,
            entries: keys.len(),
        })
    }

    /// The index's file id (needed to drop the file when the indexed
    /// relation is rebuilt in place, e.g. by dynamic maintenance).
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of index pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Probes the index for `key`, returning the inclusive range
    /// `(lo, hi)` of data-page indexes that may contain tuples with that
    /// key, or `None` if the relation is empty.
    ///
    /// Because the index is sparse, a key's tuples start on the last page
    /// whose first key is `<= key` and may spill onto following pages
    /// whose first key equals `key`.
    pub fn probe<P: Pager>(
        &self,
        pager: &mut P,
        key: u32,
    ) -> StorageResult<Option<(usize, usize)>> {
        if self.entries == 0 {
            return Ok(None);
        }
        // Binary search over the logical key array, fetching index pages
        // through the pager as they are touched.
        let read_key = |pager: &mut P, i: usize| -> StorageResult<u32> {
            let page_no = i / KEYS_PER_INDEX_PAGE;
            let slot = i % KEYS_PER_INDEX_PAGE;
            pager.with_page(self.pages[page_no], |pg: &Page| IndexPage::get(pg, slot))
        };

        // A data page `i` holds keys in [first_key[i], first_key[i+1]], so
        // tuples with `key` may appear anywhere from the page *before* the
        // first page starting at >= key (its tail can still hold `key`)
        // through the last page starting at <= key.
        //
        // first_ge = first index with first_key >= key (entries if none).
        let (mut a, mut b) = (0usize, self.entries);
        while a < b {
            let mid = (a + b) / 2;
            if read_key(pager, mid)? >= key {
                b = mid;
            } else {
                a = mid + 1;
            }
        }
        let first_ge = a;
        // last_le = last index with first_key <= key.
        let (mut a, mut b) = (0usize, self.entries);
        while a < b {
            let mid = (a + b) / 2;
            if read_key(pager, mid)? <= key {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        let last_le = a.saturating_sub(1); // a == 0 means key < every first key
        let lo = first_ge.saturating_sub(1).min(self.entries - 1);
        let hi = last_le.max(lo);
        Ok(Some((lo, hi)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use crate::relation::Tuple;

    fn setup(keys: &[(u32, usize)]) -> (DiskSim, RelationFile, ClusteredIndex) {
        // keys: (key, multiplicity)
        let mut data: Vec<Tuple> = Vec::new();
        for &(k, m) in keys {
            for d in 0..m {
                data.push((k, d as u32));
            }
        }
        let mut disk = DiskSim::new();
        let rel = RelationFile::bulk_load(&mut disk, FileKind::Relation, &data).unwrap();
        let idx = ClusteredIndex::build(&mut disk, &rel).unwrap();
        (disk, rel, idx)
    }

    #[test]
    fn probe_single_page_relation() {
        let (mut disk, rel, idx) = setup(&[(1, 3), (5, 2), (9, 4)]);
        assert_eq!(idx.page_count(), 1);
        let (lo, hi) = idx.probe(&mut disk, 5).unwrap().unwrap();
        let mut out = Vec::new();
        rel.probe_range(&mut disk, 5, lo, hi, &mut out).unwrap();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn probe_key_spanning_pages() {
        // Key 2 has 600 tuples -> spans 3 pages.
        let (mut disk, rel, idx) = setup(&[(1, 10), (2, 600), (3, 10)]);
        let (lo, hi) = idx.probe(&mut disk, 2).unwrap().unwrap();
        let mut out = Vec::new();
        rel.probe_range(&mut disk, 2, lo, hi, &mut out).unwrap();
        assert_eq!(out.len(), 600);
    }

    #[test]
    fn probe_absent_key_yields_empty() {
        let (mut disk, rel, idx) = setup(&[(1, 3), (9, 4)]);
        let (lo, hi) = idx.probe(&mut disk, 4).unwrap().unwrap();
        let mut out = Vec::new();
        rel.probe_range(&mut disk, 4, lo, hi, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn probe_empty_relation() {
        let (mut disk, _rel, idx) = setup(&[]);
        assert_eq!(idx.probe(&mut disk, 1).unwrap(), None);
    }

    #[test]
    fn probe_every_key_round_trip() {
        let keys: Vec<(u32, usize)> = (0..200u32).map(|k| (k, (k % 7 + 1) as usize)).collect();
        let (mut disk, rel, idx) = setup(&keys);
        for &(k, m) in &keys {
            let (lo, hi) = idx.probe(&mut disk, k).unwrap().unwrap();
            let mut out = Vec::new();
            rel.probe_range(&mut disk, k, lo, hi, &mut out).unwrap();
            assert_eq!(out.len(), m, "key {k}");
        }
    }
}
