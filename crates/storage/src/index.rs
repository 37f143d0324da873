//! Sparse clustered index over a [`RelationFile`].
//!
//! One key per data page (the first clustering key on that page), packed
//! into [`crate::layout::IndexPage`]s. A probe binary-searches the index
//! to find the contiguous range of data pages that can contain a key.
//! The index pages it touches are charged through the pager like any
//! other page, one request per index page visited: the keys it reads on
//! a page it has fetched are searched in that page, not requested again.
//! In practice the index is a handful of pages (one, for a relation of
//! at most 512 data pages) and stays resident in the buffer pool,
//! matching the paper's assumption that index access is cheap.
//! [`ClusteredIndex::children`] is the read the engine makes: the probe,
//! then the data pages it names.

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
    /// Because the index is sparse, a data page `i` holds keys in
    /// `[first_key[i], first_key[i+1]]`: a key's tuples may start on the
    /// page *before* the first page whose first key is `>= key` (its tail
    /// can still hold `key`) and run through the last page whose first
    /// key is `<= key`.
    ///
    /// Two binary searches find those pages, run as one sequence of key
    /// reads. The reads that land on one index page in a row are answered
    /// from a single request for it, so a probe costs one request per
    /// index page it visits (one, for an index of one page), and the
    /// pages it requests, in order, are the pages its reads land on.
    pub fn probe<P: Pager>(
        &self,
        pager: &mut P,
        key: u32,
    ) -> StorageResult<Option<(usize, usize)>> {
        if self.entries == 0 {
            return Ok(None);
        }
        let mut search = Search::new(key, self.entries);
        while let Some(mut i) = search.next() {
            let page_no = i / KEYS_PER_INDEX_PAGE;
            pager.with_page(self.pages[page_no], |pg: &Page| loop {
                search.read(i, IndexPage::get(pg, i % KEYS_PER_INDEX_PAGE));
                match search.next() {
                    Some(j) if j / KEYS_PER_INDEX_PAGE == page_no => i = j,
                    _ => break,
                }
            })?;
        }
        Ok(Some(search.range()))
    }

    /// Appends to `out` the non-key components of `rel`'s tuples with
    /// clustering key `key`: a [`ClusteredIndex::probe`], then a
    /// [`RelationFile::probe_range`] over the pages it names. `self` must
    /// be the index built over `rel`.
    pub fn children<P: Pager>(
        &self,
        pager: &mut P,
        rel: &RelationFile,
        key: u32,
        out: &mut Vec<u32>,
    ) -> StorageResult<()> {
        match self.probe(pager, key)? {
            Some((lo, hi)) => rel.probe_range(pager, key, lo, hi, out),
            None => Ok(()),
        }
    }
}

/// Where a probe's search stands: bisecting for the first key index whose
/// key is `>= key`, then for one past the last whose key is `<= key`.
struct Search {
    key: u32,
    entries: usize,
    a: usize,
    b: usize,
    /// The first bisection's answer, once it has one.
    first_ge: Option<usize>,
}

impl Search {
    fn new(key: u32, entries: usize) -> Search {
        Search {
            key,
            entries,
            a: 0,
            b: entries,
            first_ge: None,
        }
    }

    /// The key index the search reads next, or `None` once both
    /// bisections have their answer.
    fn next(&mut self) -> Option<usize> {
        if self.a == self.b && self.first_ge.is_none() {
            self.first_ge = Some(self.a);
            (self.a, self.b) = (0, self.entries);
        }
        (self.a < self.b).then(|| (self.a + self.b) / 2)
    }

    /// Narrows the search by `k`, the key at index `mid` (the index
    /// [`Search::next`] returned).
    fn read(&mut self, mid: usize, k: u32) {
        let left = match self.first_ge {
            None => k >= self.key,
            Some(_) => k > self.key,
        };
        if left {
            self.b = mid;
        } else {
            self.a = mid + 1;
        }
    }

    /// The data-page range, once [`Search::next`] has returned `None`.
    fn range(&self) -> (usize, usize) {
        let first_ge = self.first_ge.unwrap_or(self.entries);
        // a == 0 means key < every first key.
        let last_le = self.a.saturating_sub(1);
        let lo = first_ge.saturating_sub(1).min(self.entries - 1);
        (lo, last_le.max(lo))
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
        let mut out = Vec::new();
        idx.children(&mut disk, &rel, 5, &mut out).unwrap();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn probe_key_spanning_pages() {
        // Key 2 has 600 tuples -> spans 3 pages.
        let (mut disk, rel, idx) = setup(&[(1, 10), (2, 600), (3, 10)]);
        let mut out = Vec::new();
        idx.children(&mut disk, &rel, 2, &mut out).unwrap();
        assert_eq!(out.len(), 600);
    }

    #[test]
    fn probe_absent_key_yields_empty() {
        let (mut disk, rel, idx) = setup(&[(1, 3), (9, 4)]);
        let mut out = Vec::new();
        idx.children(&mut disk, &rel, 4, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn probe_empty_relation() {
        let (mut disk, rel, idx) = setup(&[]);
        assert_eq!(idx.probe(&mut disk, 1).unwrap(), None);
        let mut out = Vec::new();
        idx.children(&mut disk, &rel, 1, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn probe_every_key_round_trip() {
        let keys: Vec<(u32, usize)> = (0..200u32).map(|k| (k, (k % 7 + 1) as usize)).collect();
        let (mut disk, rel, idx) = setup(&keys);
        for &(k, m) in &keys {
            let mut out = Vec::new();
            idx.children(&mut disk, &rel, k, &mut out).unwrap();
            assert_eq!(out.len(), m, "key {k}");
        }
    }
}
