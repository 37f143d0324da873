//! Clustered relation files of `(src, dst)` arc tuples.
//!
//! The paper assumes "the corresponding relation is stored on disk as a
//! set of tuples clustered on the source attribute" (§4). A
//! [`RelationFile`] is such a file: tuples sorted on a clustering key
//! (source for the graph relation, destination for the inverse relation
//! used by `JKB2`), packed 256 per page in key order.
//!
//! A relation found by key carries its sparse index with it, as a
//! [`crate::ClusteredRelation`]; a [`RelationFile`] alone is scanned
//! whole (query output, sort runs) or probed over a page range the
//! index named. Scans and probes go through a [`Pager`], so they are
//! charged to the buffer pool / disk exactly like any other page access.

use crate::disk::{FileId, FileKind};
use crate::error::{StorageError, StorageResult};
use crate::layout::tuple::{TuplePage, TUPLES_PER_PAGE};
use crate::page::{Page, PageId};
use crate::pager::Pager;
use crate::store::PageStore;

/// An arc tuple: `(src, dst)` — or `(dst, src)` in the inverse relation,
/// where the first component is always the clustering key.
pub type Tuple = (u32, u32);

/// A relation file clustered on the first tuple component.
///
/// The struct itself is a small catalog entry (page list and counts); the
/// data lives on the simulated disk and is reached through a [`Pager`].
#[derive(Clone, Debug)]
pub struct RelationFile {
    file: FileId,
    pages: Vec<PageId>,
    tuple_count: usize,
}

impl RelationFile {
    /// Bulk-loads `tuples` (which must be sorted on the first component)
    /// into a fresh file of the given kind, bypassing the buffer pool.
    /// Works against any [`PageStore`] backend.
    ///
    /// Bulk-load writes are charged to the store; callers typically reset
    /// the store counters afterwards because the paper does not charge
    /// database loading to the queries it measures.
    pub fn bulk_load<S: PageStore + ?Sized>(
        disk: &mut S,
        kind: FileKind,
        tuples: &[Tuple],
    ) -> StorageResult<RelationFile> {
        if tuples.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err(StorageError::UnsortedInput);
        }
        let file = disk.new_file(kind);
        let mut rel = RelationFile {
            file,
            pages: Vec::new(),
            tuple_count: 0,
        };
        let mut page = Page::new();
        let mut slot = 0usize;
        for &(k, v) in tuples {
            TuplePage::put(&mut page, slot, k, v);
            slot += 1;
            if slot == TUPLES_PER_PAGE {
                let pid = disk.alloc(file)?;
                disk.write_page(pid, &page)?;
                rel.pages.push(pid);
                page.clear();
                slot = 0;
            }
        }
        if slot > 0 {
            let pid = disk.alloc(file)?;
            disk.write_page(pid, &page)?;
            rel.pages.push(pid);
        }
        rel.tuple_count = tuples.len();
        Ok(rel)
    }

    /// The file id on the simulated disk.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Total tuples stored.
    pub fn tuple_count(&self) -> usize {
        self.tuple_count
    }

    /// Number of data pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The data pages in key order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Number of valid tuples on page index `i` (all pages are full except
    /// possibly the last).
    pub fn tuples_on_page(&self, i: usize) -> usize {
        debug_assert!(i < self.pages.len());
        if i + 1 < self.pages.len() {
            TUPLES_PER_PAGE
        } else {
            let rem = self.tuple_count % TUPLES_PER_PAGE;
            if rem == 0 && self.tuple_count > 0 {
                TUPLES_PER_PAGE
            } else {
                rem
            }
        }
    }

    /// Sequentially scans the whole relation, returning all tuples.
    ///
    /// Charges one page access per data page to the pager.
    pub fn scan<P: Pager + ?Sized>(&self, pager: &mut P) -> StorageResult<Vec<Tuple>> {
        let mut out = Vec::with_capacity(self.tuple_count);
        for (i, &pid) in self.pages.iter().enumerate() {
            let count = self.tuples_on_page(i);
            pager.with_page(pid, |pg: &Page| {
                TuplePage::read_all(pg, count, &mut out);
            })?;
        }
        Ok(out)
    }

    /// Streams the relation page by page through `sink`, which receives
    /// each page's tuples. Avoids materializing the whole relation when
    /// the caller only needs one pass.
    pub fn scan_pages<P: Pager + ?Sized>(
        &self,
        pager: &mut P,
        sink: &mut dyn FnMut(&[Tuple]),
    ) -> StorageResult<()> {
        let mut buf: Vec<Tuple> = Vec::with_capacity(TUPLES_PER_PAGE);
        for (i, &pid) in self.pages.iter().enumerate() {
            let count = self.tuples_on_page(i);
            buf.clear();
            pager.with_page(pid, |pg: &Page| {
                TuplePage::read_all(pg, count, &mut buf);
            })?;
            sink(&buf);
        }
        Ok(())
    }

    /// Reads the tuples with clustering key `key` from the page range
    /// `[lo, hi]` (as produced by a [`crate::ClusteredRelation`] probe),
    /// appending the non-key components to `out`.
    ///
    /// Charges one access per page actually touched; stops early once the
    /// key range is passed (tuples are clustered).
    pub fn probe_range<P: Pager>(
        &self,
        pager: &mut P,
        key: u32,
        lo: usize,
        hi: usize,
        out: &mut Vec<u32>,
    ) -> StorageResult<()> {
        for i in lo..=hi.min(self.pages.len().saturating_sub(1)) {
            let count = self.tuples_on_page(i);
            let mut past_key = false;
            pager.with_page(self.pages[i], |pg: &Page| {
                // Tuples are clustered, so the key's run starts at the
                // first slot not below it: bisect to it, then walk it.
                let (mut a, mut b) = (0, count);
                while a < b {
                    let mid = (a + b) / 2;
                    if TuplePage::get(pg, mid).0 < key {
                        a = mid + 1;
                    } else {
                        b = mid;
                    }
                }
                let mut end = a;
                while end < count && TuplePage::get(pg, end).0 == key {
                    end += 1;
                }
                TuplePage::read_values(pg, a, end, out);
                past_key = end < count;
            })?;
            if past_key {
                break;
            }
        }
        Ok(())
    }
}

/// Incremental writer of a tuple file through a [`Pager`].
///
/// Used wherever tuples are produced a few at a time against the buffer
/// pool — query output files, external-sort runs, the arc-extraction pass
/// of `JKB`'s preprocessing. Unlike [`RelationFile::bulk_load`], the input
/// need not be sorted, and nothing the writer writes is indexed: a
/// relation found by key is a [`crate::ClusteredRelation`], built by one
/// sorted bulk load.
pub struct TupleWriter {
    file: FileId,
    pages: Vec<PageId>,
    count: usize,
    slot: usize,
}

impl TupleWriter {
    /// Starts writing a fresh file of the given kind.
    pub fn new<P: Pager>(pager: &mut P, kind: FileKind) -> TupleWriter {
        let file = pager.create_file(kind);
        TupleWriter {
            file,
            pages: Vec::new(),
            count: 0,
            slot: 0,
        }
    }

    /// Appends one tuple.
    pub fn push<P: Pager>(&mut self, pager: &mut P, t: Tuple) -> StorageResult<()> {
        self.extend(pager, std::iter::once(t))
    }

    /// Appends `tuples` in order. The file is what repeated
    /// [`TupleWriter::push`] would have written — same pages, allocated
    /// at the same points — but the pager is asked once per page filled,
    /// not once per tuple.
    pub fn extend<P: Pager>(
        &mut self,
        pager: &mut P,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> StorageResult<()> {
        let mut tuples = tuples.into_iter().peekable();
        while tuples.peek().is_some() {
            if self.slot == 0 {
                let pid = pager.alloc_page(self.file)?;
                self.pages.push(pid);
            }
            let pid = *self
                .pages
                .last()
                .ok_or(StorageError::Internal("page allocated above"))?;
            pager.with_page_mut(pid, |pg: &mut Page| {
                while self.slot < TUPLES_PER_PAGE {
                    let Some((k, v)) = tuples.next() else { break };
                    TuplePage::put(pg, self.slot, k, v);
                    self.count += 1;
                    self.slot += 1;
                }
            })?;
            self.slot %= TUPLES_PER_PAGE;
        }
        Ok(())
    }

    /// Tuples written so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Finishes the file and returns its catalog entry.
    pub fn finish(self) -> RelationFile {
        RelationFile {
            file: self.file,
            pages: self.pages,
            tuple_count: self.count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;

    fn arcs(n: usize) -> Vec<Tuple> {
        (0..n).map(|i| ((i / 3) as u32, (i % 7) as u32)).collect()
    }

    #[test]
    fn bulk_load_and_scan_round_trip() {
        let mut disk = DiskSim::new();
        let data = arcs(1000);
        let rel = RelationFile::bulk_load(&mut disk, FileKind::Relation, &data).unwrap();
        assert_eq!(rel.tuple_count(), 1000);
        assert_eq!(rel.page_count(), 1000_usize.div_ceil(256));
        let back = rel.scan(&mut disk).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn rejects_unsorted_input() {
        let mut disk = DiskSim::new();
        let data = vec![(5, 1), (3, 2)];
        assert_eq!(
            RelationFile::bulk_load(&mut disk, FileKind::Relation, &data).unwrap_err(),
            StorageError::UnsortedInput
        );
    }

    #[test]
    fn exact_page_boundary() {
        let mut disk = DiskSim::new();
        let data: Vec<Tuple> = (0..512).map(|i| (i as u32, 0)).collect();
        let rel = RelationFile::bulk_load(&mut disk, FileKind::Relation, &data).unwrap();
        assert_eq!(rel.page_count(), 2);
        assert_eq!(rel.tuples_on_page(0), 256);
        assert_eq!(rel.tuples_on_page(1), 256);
        assert_eq!(rel.scan(&mut disk).unwrap().len(), 512);
    }

    #[test]
    fn partial_last_page() {
        let mut disk = DiskSim::new();
        let data: Vec<Tuple> = (0..300).map(|i| (i as u32, 1)).collect();
        let rel = RelationFile::bulk_load(&mut disk, FileKind::Relation, &data).unwrap();
        assert_eq!(rel.page_count(), 2);
        assert_eq!(rel.tuples_on_page(1), 44);
    }

    #[test]
    fn empty_relation() {
        let mut disk = DiskSim::new();
        let rel = RelationFile::bulk_load(&mut disk, FileKind::Relation, &[]).unwrap();
        assert_eq!(rel.page_count(), 0);
        assert!(rel.scan(&mut disk).unwrap().is_empty());
    }

    #[test]
    fn probe_range_finds_key_and_stops_early() {
        let mut disk = DiskSim::new();
        // Key 100 spans a page boundary: keys 0..=99 fill ~2.3 pages.
        let mut data: Vec<Tuple> = Vec::new();
        for k in 0..150u32 {
            for d in 0..6u32 {
                data.push((k, k * 10 + d));
            }
        }
        let rel = RelationFile::bulk_load(&mut disk, FileKind::Relation, &data).unwrap();
        let mut out = Vec::new();
        rel.probe_range(&mut disk, 100, 0, rel.page_count() - 1, &mut out)
            .unwrap();
        assert_eq!(out, vec![1000, 1001, 1002, 1003, 1004, 1005]);
    }

    #[test]
    fn tuple_writer_matches_bulk_load() {
        let mut disk = DiskSim::new();
        let data = arcs(600);
        let mut w = TupleWriter::new(&mut disk, FileKind::Temp);
        for &t in &data {
            w.push(&mut disk, t).unwrap();
        }
        assert_eq!(w.count(), 600);
        let rel = w.finish();
        assert_eq!(rel.scan(&mut disk).unwrap(), data);
    }

    #[test]
    fn extend_writes_what_repeated_push_writes() {
        // Lengths around the 256-tuple page; `head` tuples go in one at
        // a time first, so `extend` starts mid-page (or on a boundary).
        for (len, head) in [
            (0, 0),
            (1, 0),
            (255, 0),
            (256, 0),
            (257, 100),
            (600, 256),
            (1000, 3),
        ] {
            let mut data = arcs(len);
            if len == 600 {
                data.swap(10, 500); // unsorted input is written as it comes
            }
            let (mut pushed_disk, mut extended_disk) = (DiskSim::new(), DiskSim::new());
            let mut pushed = TupleWriter::new(&mut pushed_disk, FileKind::Temp);
            let mut extended = TupleWriter::new(&mut extended_disk, FileKind::Temp);
            for &t in &data {
                pushed.push(&mut pushed_disk, t).unwrap();
            }
            for &t in &data[..head] {
                extended.push(&mut extended_disk, t).unwrap();
            }
            let rest = data[head..].iter().copied();
            extended.extend(&mut extended_disk, rest).unwrap();
            assert_eq!(extended.count(), pushed.count(), "len {len}");
            let (pushed, extended) = (pushed.finish(), extended.finish());
            assert_eq!(extended.pages(), pushed.pages(), "len {len}");
            assert_eq!(extended.tuple_count(), len);
            for &pid in pushed.pages() {
                let image = |disk: &mut DiskSim| disk.with_page(pid, |pg: &Page| pg.clone());
                assert!(
                    image(&mut extended_disk) == image(&mut pushed_disk),
                    "len {len}"
                );
            }
            // On a direct pager every request is one write: `push` makes
            // one per tuple, `extend` one per page it fills.
            let mut filled: Vec<usize> = (head..len).map(|i| i / 256).collect();
            filled.dedup();
            assert_eq!(pushed_disk.stats().writes as usize, len);
            assert_eq!(extended_disk.stats().writes as usize, head + filled.len());
        }
    }

    #[test]
    fn scan_pages_streams_all() {
        let mut disk = DiskSim::new();
        let data = arcs(700);
        let rel = RelationFile::bulk_load(&mut disk, FileKind::Relation, &data).unwrap();
        let mut n = 0usize;
        rel.scan_pages(&mut disk, &mut |chunk| n += chunk.len())
            .unwrap();
        assert_eq!(n, 700);
    }
}
