//! Positional files of `u32` values.
//!
//! A [`crate::RelationFile`] is the paper's keyed file: tuples clustered
//! on a key, found through a sparse index, 256 to a page. Three files of
//! this system are never probed by key. The materialized closure is read
//! through the row table its owner keeps (source `u`'s successors are
//! values `rows[u]..rows[u + 1]`), a label column is values
//! `c·N..(c + 1)·N`, a chain suffix is a run of the chains file whose
//! start is known. Their readers address values *by position*, so a key
//! stored beside each value would only double the bytes every scan,
//! rewrite and capture moves. A [`ValueFile`] is that file: bare values,
//! [`VALUES_PER_PAGE`] to a page, in the order written.
//!
//! Reads and writes go through a [`Pager`] and are charged like any other
//! page access, one request per page touched.

use crate::disk::{FileId, FileKind};
use crate::error::{StorageError, StorageResult};
use crate::layout::value::{ValuePage, VALUES_PER_PAGE};
use crate::page::{Page, PageId};
use crate::pager::Pager;
use crate::store::PageStore;

/// A file of `u32` values addressed by position.
///
/// The struct is the catalog entry (file id, page list, count); value
/// `i` lives in slot `i % VALUES_PER_PAGE` of page `i / VALUES_PER_PAGE`.
#[derive(Clone, Debug)]
pub struct ValueFile {
    file: FileId,
    pages: Vec<PageId>,
    count: usize,
}

impl ValueFile {
    /// Loads `values` into a fresh file of the given kind, one write per
    /// page, bypassing the buffer pool. The writes are charged to the
    /// store, like [`crate::RelationFile::bulk_load`]'s.
    pub fn bulk_load<S: PageStore + ?Sized>(
        disk: &mut S,
        kind: FileKind,
        values: &[u32],
    ) -> StorageResult<ValueFile> {
        let file = disk.new_file(kind);
        let mut pages = Vec::with_capacity(values.len().div_ceil(VALUES_PER_PAGE));
        let mut page = Page::new();
        for chunk in values.chunks(VALUES_PER_PAGE) {
            if chunk.len() < VALUES_PER_PAGE {
                page.clear();
            }
            ValuePage::write(&mut page, 0, chunk);
            let pid = disk.alloc(file)?;
            disk.write_page(pid, &page)?;
            pages.push(pid);
        }
        Ok(ValueFile {
            file,
            pages,
            count: values.len(),
        })
    }

    /// The file id on the store.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Values stored.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of data pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The data pages in position order.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// The value at position `at`: one page access, for the page that
    /// holds it. A position at or past the end of the file is refused.
    pub fn get<P: Pager + ?Sized>(&self, pager: &mut P, at: usize) -> StorageResult<u32> {
        if at >= self.count {
            return Err(StorageError::SlotOutOfBounds {
                slot: at,
                capacity: self.count,
            });
        }
        pager.with_page(self.pages[at / VALUES_PER_PAGE], |pg: &Page| {
            ValuePage::get(pg, at % VALUES_PER_PAGE)
        })
    }

    /// Appends the values at positions `[start, end)` to `out`: one page
    /// access per page touched, in page order. An empty range touches
    /// nothing; one that runs past the end of the file is refused.
    pub fn read_range<P: Pager + ?Sized>(
        &self,
        pager: &mut P,
        start: usize,
        end: usize,
        out: &mut Vec<u32>,
    ) -> StorageResult<()> {
        if end > self.count {
            return Err(StorageError::SlotOutOfBounds {
                slot: end,
                capacity: self.count,
            });
        }
        if start >= end {
            return Ok(());
        }
        out.reserve_exact(end - start);
        for i in start / VALUES_PER_PAGE..=(end - 1) / VALUES_PER_PAGE {
            let base = i * VALUES_PER_PAGE;
            let from = start.saturating_sub(base);
            let to = (end - base).min(VALUES_PER_PAGE);
            pager.with_page(self.pages[i], |pg: &Page| {
                ValuePage::read(pg, from, to, out);
            })?;
        }
        Ok(())
    }

    /// Streams the file page by page through `sink`, which receives each
    /// page's values in position order — for a reader that checks or
    /// folds the values as they arrive.
    pub fn scan_pages<P: Pager + ?Sized>(
        &self,
        pager: &mut P,
        sink: &mut dyn FnMut(&[u32]),
    ) -> StorageResult<()> {
        let mut buf: Vec<u32> = Vec::with_capacity(VALUES_PER_PAGE);
        for (i, &pid) in self.pages.iter().enumerate() {
            let valid = (self.count - i * VALUES_PER_PAGE).min(VALUES_PER_PAGE);
            buf.clear();
            pager.with_page(pid, |pg: &Page| ValuePage::read(pg, 0, valid, &mut buf))?;
            sink(&buf);
        }
        Ok(())
    }
}

/// Incremental writer of a [`ValueFile`] through a [`Pager`].
///
/// Its only append takes a slice: a caller that has its values one at a
/// time collects a row first, so the pager is asked once per page a call
/// fills, never once per value.
pub struct ValueWriter {
    file: FileId,
    pages: Vec<PageId>,
    count: usize,
}

impl ValueWriter {
    /// Starts writing a fresh file of the given kind.
    pub fn new<P: Pager>(pager: &mut P, kind: FileKind) -> ValueWriter {
        ValueWriter {
            file: pager.create_file(kind),
            pages: Vec::new(),
            count: 0,
        }
    }

    /// Appends `values` in order: a page is allocated when the previous
    /// one is full, and each page the slice lands on is requested once.
    pub fn extend_from_slice<P: Pager>(
        &mut self,
        pager: &mut P,
        mut values: &[u32],
    ) -> StorageResult<()> {
        while !values.is_empty() {
            let slot = self.count % VALUES_PER_PAGE;
            if slot == 0 {
                self.pages.push(pager.alloc_page(self.file)?);
            }
            let pid = *self
                .pages
                .last()
                .ok_or(StorageError::Internal("page allocated above"))?;
            let (head, rest) = values.split_at(values.len().min(VALUES_PER_PAGE - slot));
            pager.with_page_mut(pid, |pg: &mut Page| ValuePage::write(pg, slot, head))?;
            self.count += head.len();
            values = rest;
        }
        Ok(())
    }

    /// Values written so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Finishes the file and returns its catalog entry.
    pub fn finish(self) -> ValueFile {
        ValueFile {
            file: self.file,
            pages: self.pages,
            count: self.count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use crate::file_store::{FileStore, TempDir};
    use tc_det::Rng;

    /// Lengths around the 512-value page: empty, one value, one short of
    /// a page, a last page that is exactly full (512, 1024), one over.
    const LENS: [usize; 6] = [0, 1, 511, 512, 513, 1024];

    fn values(len: usize, rng: &mut Rng) -> Vec<u32> {
        (0..len).map(|_| rng.next_u32()).collect()
    }

    /// Pages holding positions `[start, end)`.
    fn pages_touched(start: usize, end: usize) -> usize {
        if start >= end {
            0
        } else {
            (end - 1) / VALUES_PER_PAGE - start / VALUES_PER_PAGE + 1
        }
    }

    /// A store to run a test body on, and what stands for closing and
    /// reopening it: nothing on the simulated disk, sync + drop + open
    /// on a real file.
    struct Bed<S> {
        fresh: fn(&TempDir) -> S,
        reopen: fn(S, &TempDir) -> S,
    }

    const SIM: Bed<DiskSim> = Bed {
        fresh: |_| DiskSim::new(),
        reopen: |disk, _| disk,
    };

    const FILE: Bed<FileStore> = Bed {
        fresh: |dir| FileStore::create(dir.path()).unwrap(),
        reopen: |mut store, dir| {
            store.sync().unwrap();
            drop(store);
            let store = FileStore::open(dir.path()).unwrap();
            assert!(store.recovery().is_clean());
            store
        },
    };

    fn read_range_returns_the_written_slice<S: PageStore>(bed: Bed<S>) {
        let mut rng = Rng::from_seed(0x5EED_0512);
        for len in LENS {
            let data = values(len, &mut rng);
            // The writer starts mid-page whenever there is a page to
            // start in the middle of.
            let head = len.min(200);
            let dir = TempDir::new("tc-valuefile-read").unwrap();
            let mut store = (bed.fresh)(&dir);
            let loaded = ValueFile::bulk_load(&mut store, FileKind::Output, &data).unwrap();
            let mut w = ValueWriter::new(&mut store, FileKind::Output);
            w.extend_from_slice(&mut store, &data[..head]).unwrap();
            w.extend_from_slice(&mut store, &data[head..]).unwrap();
            assert_eq!(w.count(), len);
            let written = w.finish();
            let mut store = (bed.reopen)(store, &dir);

            for file in [&loaded, &written] {
                assert_eq!(file.count(), len, "len {len}");
                assert_eq!(
                    file.page_count(),
                    len.div_ceil(VALUES_PER_PAGE),
                    "len {len}"
                );
                assert_eq!(
                    store.file_pages(file.file_id()),
                    Ok(file.pages()),
                    "len {len}"
                );
                let mut ranges = vec![(0, len), (0, 0), (len, len), (len / 2, len / 2)];
                for _ in 0..24 {
                    let start = rng.random_range(0..=len);
                    ranges.push((start, rng.random_range(start..=len)));
                }
                for (start, end) in ranges {
                    let mut out = vec![u32::MAX];
                    let before = store.stats().reads;
                    file.read_range(&mut store, start, end, &mut out).unwrap();
                    assert_eq!(out[0], u32::MAX, "read_range appends");
                    assert_eq!(&out[1..], &data[start..end], "len {len} [{start}, {end})");
                    let reads = (store.stats().reads - before) as usize;
                    assert_eq!(
                        reads,
                        pages_touched(start, end),
                        "len {len} [{start}, {end})"
                    );
                }
                let mut scanned = Vec::new();
                file.scan_pages(&mut store, &mut |chunk| scanned.extend_from_slice(chunk))
                    .unwrap();
                assert_eq!(scanned, data, "len {len}");
                let past = file.read_range(&mut store, 0, len + 1, &mut Vec::new());
                assert!(
                    matches!(past, Err(StorageError::SlotOutOfBounds { .. })),
                    "len {len}"
                );
            }
        }
    }

    fn pieces_write_what_one_call_writes<S: PageStore>(bed: Bed<S>) {
        let mut rng = Rng::from_seed(0x5EED_0513);
        for len in LENS.into_iter().chain([1500, 2048]) {
            let data = values(len, &mut rng);
            let mut cuts: Vec<usize> = (0..5).map(|_| rng.random_range(0..=len)).collect();
            cuts.extend([0, len]);
            cuts.sort_unstable();

            let dirs = [(); 2].map(|()| TempDir::new("tc-valuefile-pieces").unwrap());
            let [mut whole_store, mut pieces_store] = dirs.each_ref().map(bed.fresh);
            let mut whole = ValueWriter::new(&mut whole_store, FileKind::Output);
            let mut pieces = ValueWriter::new(&mut pieces_store, FileKind::Output);
            whole.extend_from_slice(&mut whole_store, &data).unwrap();
            let mut requests = 0;
            for cut in cuts.windows(2) {
                pieces
                    .extend_from_slice(&mut pieces_store, &data[cut[0]..cut[1]])
                    .unwrap();
                requests += pages_touched(cut[0], cut[1]);
            }
            // On a direct pager every request to write is one write.
            assert_eq!(whole_store.stats().writes as usize, pages_touched(0, len));
            assert_eq!(pieces_store.stats().writes as usize, requests, "len {len}");

            let (whole, pieces) = (whole.finish(), pieces.finish());
            assert_eq!(pieces.count(), whole.count(), "len {len}");
            assert_eq!(pieces.pages(), whole.pages(), "len {len}");
            let [dir_w, dir_p] = dirs.each_ref();
            let mut whole_store = (bed.reopen)(whole_store, dir_w);
            let mut pieces_store = (bed.reopen)(pieces_store, dir_p);
            for &pid in whole.pages() {
                let (mut a, mut b) = (Page::new(), Page::new());
                whole_store.read_page(pid, &mut a).unwrap();
                pieces_store.read_page(pid, &mut b).unwrap();
                assert!(a == b, "len {len}: image of {pid:?} differs");
            }
        }
    }

    #[test]
    fn get_reads_one_value_from_its_page() {
        let mut rng = Rng::from_seed(0x5EED_0514);
        let len = 3 * VALUES_PER_PAGE + 5;
        let data = values(len, &mut rng);
        let mut disk = DiskSim::new();
        let file = ValueFile::bulk_load(&mut disk, FileKind::Output, &data).unwrap();
        let mut ats = vec![0, len - 1];
        for page in 1..=3 {
            let boundary = page * VALUES_PER_PAGE;
            ats.extend([boundary - 1, boundary, boundary + 1]);
        }
        for at in ats {
            let mut want = Vec::new();
            file.read_range(&mut disk, at, at + 1, &mut want).unwrap();
            let before = disk.stats().reads;
            assert_eq!(file.get(&mut disk, at).unwrap(), want[0], "at {at}");
            assert_eq!(disk.stats().reads - before, 1, "at {at}: one request");
        }
        for at in [len, len + VALUES_PER_PAGE] {
            assert_eq!(
                file.get(&mut disk, at),
                Err(StorageError::SlotOutOfBounds {
                    slot: at,
                    capacity: len
                })
            );
        }
    }

    #[test]
    fn value_file_read_range_returns_the_written_slice_sim() {
        read_range_returns_the_written_slice(SIM);
    }

    #[test]
    fn value_file_read_range_returns_the_written_slice_file_reopened() {
        read_range_returns_the_written_slice(FILE);
    }

    #[test]
    fn value_file_pieces_write_what_one_call_writes_sim() {
        pieces_write_what_one_call_writes(SIM);
    }

    #[test]
    fn value_file_pieces_write_what_one_call_writes_file_reopened() {
        pieces_write_what_one_call_writes(FILE);
    }
}
