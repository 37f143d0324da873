//! Clustered relations: a [`RelationFile`] and the sparse index over it,
//! one value.
//!
//! The paper assumes "a clustered index on the source attribute" (§4).
//! Because the relation is clustered, a sparse index suffices: one key
//! per data page, the first clustering key on that page. The position of
//! a key in the index is the number of the data page it describes, so
//! the index stores no page pointers and is a [`ValueFile`] of
//! [`FileKind::Index`]: keys found by position, 512 to a page.
//!
//! A [`ClusteredRelation`] is built by one sorted bulk load, which writes
//! the tuples and then the index of their pages' first keys, so an index
//! is never paired by hand with a relation it was not built over. A
//! probe binary-searches the index to find the contiguous range of data
//! pages that can contain a key. The index pages it touches are charged
//! through the pager like any other page, one request per index page
//! visited: the keys it reads on a page it has fetched are searched in
//! that page, not requested again. In practice the index is a handful of
//! pages (one, for a relation of at most 512 data pages) and stays
//! resident in the buffer pool, matching the paper's assumption that
//! index access is cheap. [`ClusteredRelation::children`] is the read the
//! engine makes: the probe, then the data pages it names.

use crate::disk::{FileId, FileKind};
use crate::error::StorageResult;
use crate::layout::tuple::TUPLES_PER_PAGE;
use crate::layout::value::{ValuePage, VALUES_PER_PAGE};
use crate::page::Page;
use crate::pager::Pager;
use crate::relation::{RelationFile, Tuple};
use crate::store::PageStore;
use crate::values::ValueFile;

/// A relation file clustered on the first tuple component, with the
/// sparse index that maps a key to the data-page range holding it.
#[derive(Clone, Debug)]
pub struct ClusteredRelation {
    tuples: RelationFile,
    /// The first key of each data page of `tuples`, in page order.
    keys: ValueFile,
}

impl ClusteredRelation {
    /// Bulk-loads `tuples` (which must be sorted on the first component)
    /// into a fresh file of the given kind, then writes the index of its
    /// pages' first keys to a fresh [`FileKind::Index`] file. Both bypass
    /// the buffer pool and are charged to the store, like
    /// [`RelationFile::bulk_load`]'s writes.
    pub fn bulk_load<S: PageStore + ?Sized>(
        disk: &mut S,
        kind: FileKind,
        tuples: &[Tuple],
    ) -> StorageResult<ClusteredRelation> {
        let relation = RelationFile::bulk_load(disk, kind, tuples)?;
        let first_keys: Vec<u32> = tuples
            .iter()
            .step_by(TUPLES_PER_PAGE)
            .map(|t| t.0)
            .collect();
        Ok(ClusteredRelation {
            tuples: relation,
            keys: ValueFile::bulk_load(disk, FileKind::Index, &first_keys)?,
        })
    }

    /// The tuples, for a scan of the whole relation.
    pub fn tuples(&self) -> &RelationFile {
        &self.tuples
    }

    /// The sparse index: the first key of each data page.
    pub fn keys(&self) -> &ValueFile {
        &self.keys
    }

    /// The relation's file, then its index's: the order they were
    /// written in, and the order a rebuild in place drops them in.
    pub fn file_ids(&self) -> [FileId; 2] {
        [self.tuples.file_id(), self.keys.file_id()]
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
        let entries = self.keys.count();
        if entries == 0 {
            return Ok(None);
        }
        let mut search = Search::new(key, entries);
        while let Some(mut i) = search.next() {
            let page_no = i / VALUES_PER_PAGE;
            pager.with_page(self.keys.pages()[page_no], |pg: &Page| loop {
                search.read(i, ValuePage::get(pg, i % VALUES_PER_PAGE));
                match search.next() {
                    Some(j) if j / VALUES_PER_PAGE == page_no => i = j,
                    _ => break,
                }
            })?;
        }
        Ok(Some(search.range()))
    }

    /// Appends to `out` the non-key components of the tuples with
    /// clustering key `key`: a [`ClusteredRelation::probe`], then a
    /// [`RelationFile::probe_range`] over the pages it names.
    pub fn children<P: Pager>(
        &self,
        pager: &mut P,
        key: u32,
        out: &mut Vec<u32>,
    ) -> StorageResult<()> {
        match self.probe(pager, key)? {
            Some((lo, hi)) => self.tuples.probe_range(pager, key, lo, hi, out),
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

    fn setup(keys: &[(u32, usize)]) -> (DiskSim, ClusteredRelation) {
        // keys: (key, multiplicity)
        let mut data: Vec<Tuple> = Vec::new();
        for &(k, m) in keys {
            for d in 0..m {
                data.push((k, d as u32));
            }
        }
        let mut disk = DiskSim::new();
        let rel = ClusteredRelation::bulk_load(&mut disk, FileKind::Relation, &data).unwrap();
        (disk, rel)
    }

    #[test]
    fn probe_single_page_relation() {
        let (mut disk, rel) = setup(&[(1, 3), (5, 2), (9, 4)]);
        assert_eq!(rel.keys().page_count(), 1);
        let mut out = Vec::new();
        rel.children(&mut disk, 5, &mut out).unwrap();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn probe_key_spanning_pages() {
        // Key 2 has 600 tuples -> spans 3 pages.
        let (mut disk, rel) = setup(&[(1, 10), (2, 600), (3, 10)]);
        let mut out = Vec::new();
        rel.children(&mut disk, 2, &mut out).unwrap();
        assert_eq!(out.len(), 600);
    }

    #[test]
    fn probe_absent_key_yields_empty() {
        let (mut disk, rel) = setup(&[(1, 3), (9, 4)]);
        let mut out = Vec::new();
        rel.children(&mut disk, 4, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn probe_empty_relation() {
        let (mut disk, rel) = setup(&[]);
        assert_eq!(rel.keys().page_count(), 0);
        assert_eq!(rel.probe(&mut disk, 1).unwrap(), None);
        let mut out = Vec::new();
        rel.children(&mut disk, 1, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn probe_every_key_round_trip() {
        let keys: Vec<(u32, usize)> = (0..200u32).map(|k| (k, (k % 7 + 1) as usize)).collect();
        let (mut disk, rel) = setup(&keys);
        for &(k, m) in &keys {
            let mut out = Vec::new();
            rel.children(&mut disk, k, &mut out).unwrap();
            assert_eq!(out.len(), m, "key {k}");
        }
    }

    #[test]
    fn index_reads_back_as_the_first_key_of_every_data_page() {
        // 600 data pages of distinct keys: the index spans two pages.
        let data: Vec<Tuple> = (0..600 * TUPLES_PER_PAGE as u32 - 7)
            .map(|i| (i / 3, i))
            .collect();
        let mut disk = DiskSim::new();
        let rel = ClusteredRelation::bulk_load(&mut disk, FileKind::Relation, &data).unwrap();
        assert_eq!(rel.tuples().page_count(), 600);
        assert_eq!(rel.keys().page_count(), 2);
        let mut keys = Vec::new();
        rel.keys()
            .read_range(&mut disk, 0, rel.keys().count(), &mut keys)
            .unwrap();
        let mut firsts = Vec::new();
        for (i, &pid) in rel.tuples().pages().iter().enumerate() {
            let first = disk.with_page(pid, |pg: &Page| crate::TuplePage::get(pg, 0).0);
            firsts.push(first.unwrap());
            assert_eq!(firsts[i], data[i * TUPLES_PER_PAGE].0, "page {i}");
        }
        assert_eq!(keys, firsts);
        assert_eq!(
            rel.file_ids(),
            [rel.tuples().file_id(), rel.keys().file_id()]
        );
    }
}
