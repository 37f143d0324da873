//! Positional files of `u32` values, each in the fewest whole bytes its
//! file's bound needs.
//!
//! A [`crate::RelationFile`] is the paper's keyed file: tuples clustered
//! on a key, found through a sparse index, 256 to a page. Three files of
//! this system are never probed by key. The materialized closure is read
//! through the row table kept beside it (source `u`'s successors are
//! values `rows[u]..rows[u + 1]`; `tc_core::closure_file` owns both and
//! is the closure's only reader and writer), a label column is values
//! `c·N..(c + 1)·N`, a chain suffix is a run of the chains file whose
//! start is known. Their readers address values *by position* — one
//! value, a range, or the whole file as one range — so a key stored
//! beside each value would only double the bytes every scan, rewrite
//! and capture moves. A [`ValueFile`] is that file: bare values, in the
//! order written.
//!
//! For the same reason a value takes no more bytes than its file can
//! need. Each file is created with the bound its values lie below — a
//! closure's successors are node ids below `n`, a chain holds component
//! ids — and stores each value in the fewest whole bytes, 1 to 4, that
//! hold `bound − 1` ([`ValuePage::for_bound`]),
//! [`ValueFile::values_per_page`] to a page. Positions are unchanged by
//! the width: only how many share a page. A value at or above the bound
//! is refused, [`StorageError::ValueOutOfRange`], before any byte of the
//! call that carries it is written: it is never truncated.
//!
//! Reads and writes go through a [`Pager`] and are charged like any other
//! page access, one request per page touched.

use crate::disk::{FileId, FileKind};
use crate::error::{StorageError, StorageResult};
use crate::layout::value::ValuePage;
use crate::page::{Page, PageId};
use crate::pager::Pager;
use crate::store::PageStore;

/// Refuses `values` if one lies at or above `bound`, naming the first.
fn check_bound(values: &[u32], bound: u64) -> StorageResult<()> {
    if bound > u64::from(u32::MAX) {
        return Ok(());
    }
    match values.iter().find(|&&v| u64::from(v) >= bound) {
        Some(&value) => Err(StorageError::ValueOutOfRange { value, bound }),
        None => Ok(()),
    }
}

/// A file of `u32` values addressed by position.
///
/// The struct is the catalog entry (file id, slot layout, page list,
/// count); value `i` lives in slot `i % p` of page `i / p`, `p` =
/// [`ValueFile::values_per_page`].
#[derive(Clone, Debug)]
pub struct ValueFile {
    file: FileId,
    layout: ValuePage,
    pages: Vec<PageId>,
    count: usize,
}

impl ValueFile {
    /// Loads `values`, each below `bound`, into a fresh file of the
    /// given kind, one write per page, bypassing the buffer pool. The
    /// writes are charged to the store, like
    /// [`crate::RelationFile::bulk_load`]'s. A value at or above `bound`
    /// is [`StorageError::ValueOutOfRange`], before any file is created.
    pub fn bulk_load<S: PageStore + ?Sized>(
        disk: &mut S,
        kind: FileKind,
        bound: u64,
        values: &[u32],
    ) -> StorageResult<ValueFile> {
        check_bound(values, bound)?;
        let layout = ValuePage::for_bound(bound);
        let per_page = layout.per_page();
        let file = disk.new_file(kind);
        let mut pages = Vec::with_capacity(values.len().div_ceil(per_page));
        let mut page = Page::new();
        for chunk in values.chunks(per_page) {
            if chunk.len() < per_page {
                page.clear();
            }
            layout.write(&mut page, 0, chunk);
            let pid = disk.alloc(file)?;
            disk.write_page(pid, &page)?;
            pages.push(pid);
        }
        Ok(ValueFile {
            file,
            layout,
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

    /// The slot layout of the file's pages.
    pub fn layout(&self) -> ValuePage {
        self.layout
    }

    /// Values a page of this file holds: `⌊2048 / width⌋`, the width
    /// set by the bound the file was written with.
    pub fn values_per_page(&self) -> usize {
        self.layout.per_page()
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
        let layout = self.layout;
        let (page, slot) = layout.locate(at);
        pager.with_page(self.pages[page], |pg: &Page| layout.get(pg, slot))
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
        let (layout, per_page) = (self.layout, self.values_per_page());
        for i in start / per_page..=(end - 1) / per_page {
            let base = i * per_page;
            let from = start.saturating_sub(base);
            let to = (end - base).min(per_page);
            pager.with_page(self.pages[i], |pg: &Page| {
                layout.read(pg, from, to, out);
            })?;
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
    bound: u64,
    layout: ValuePage,
    pages: Vec<PageId>,
    count: usize,
}

impl ValueWriter {
    /// Starts writing a fresh file of the given kind, whose values all
    /// lie below `bound`.
    pub fn new<P: Pager>(pager: &mut P, kind: FileKind, bound: u64) -> ValueWriter {
        ValueWriter {
            file: pager.create_file(kind),
            bound,
            layout: ValuePage::for_bound(bound),
            pages: Vec::new(),
            count: 0,
        }
    }

    /// Appends `values` in order: a page is allocated when the previous
    /// one is full, and each page the slice lands on is requested once.
    /// A value at or above the writer's bound is
    /// [`StorageError::ValueOutOfRange`], before any value of the call
    /// is written.
    pub fn extend_from_slice<P: Pager>(
        &mut self,
        pager: &mut P,
        mut values: &[u32],
    ) -> StorageResult<()> {
        check_bound(values, self.bound)?;
        let (layout, per_page) = (self.layout, self.layout.per_page());
        while !values.is_empty() {
            let slot = self.count % per_page;
            if slot == 0 {
                self.pages.push(pager.alloc_page(self.file)?);
            }
            let pid = *self
                .pages
                .last()
                .ok_or(StorageError::Internal("page allocated above"))?;
            let (head, rest) = values.split_at(values.len().min(per_page - slot));
            pager.with_page_mut(pid, |pg: &mut Page| layout.write(pg, slot, head))?;
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
            layout: self.layout,
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
    use crate::page::PAGE_SIZE;
    use tc_det::check::{shrink_none, Checker};
    use tc_det::{require, require_eq, Rng};

    /// The bounds at each width's edges: the largest of a width, the
    /// smallest of the next, and the widest a `u32` file declares.
    const BOUNDS: [u64; 10] = [
        1,
        2,
        256,
        257,
        1 << 16,
        (1 << 16) + 1,
        1 << 24,
        (1 << 24) + 1,
        u32::MAX as u64,
        1 << 32,
    ];

    /// The width a bound needs, worked out apart from the codec.
    fn width_of(bound: u64) -> usize {
        match bound {
            0..=256 => 1,
            257..=65_536 => 2,
            65_537..=16_777_216 => 3,
            _ => 4,
        }
    }

    /// Pages holding positions `[start, end)` at `per_page` a page.
    fn pages_touched(start: usize, end: usize, per_page: usize) -> usize {
        if start >= end {
            0
        } else {
            (end - 1) / per_page - start / per_page + 1
        }
    }

    /// A store to run a case on, and what stands for closing and
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

    /// The largest bound of each width, 1 to 4 bytes.
    const WIDEST: [u64; 4] = [1 << 8, 1 << 16, 1 << 24, 1 << 32];

    /// Lengths around a page of `p` values: empty, one value, one short
    /// of a page, a last page that is exactly full (`p`, `2p`), one over.
    fn lens(p: usize) -> [usize; 6] {
        [0, 1, p - 1, p, p + 1, 2 * p]
    }

    fn values(len: usize, bound: u64, rng: &mut Rng) -> Vec<u32> {
        (0..len).map(|_| (rng.next_u64() % bound) as u32).collect()
    }

    fn read_range_returns_the_written_slice<S: PageStore>(bed: Bed<S>) {
        let mut rng = Rng::from_seed(0x5EED_0512);
        for bound in WIDEST {
            let p = PAGE_SIZE / width_of(bound);
            for len in lens(p) {
                let data = values(len, bound, &mut rng);
                // The writer starts mid-page whenever there is a page to
                // start in the middle of.
                let head = len.min(200);
                let dir = TempDir::new("tc-valuefile-read").unwrap();
                let mut store = (bed.fresh)(&dir);
                let loaded =
                    ValueFile::bulk_load(&mut store, FileKind::Output, bound, &data).unwrap();
                let mut w = ValueWriter::new(&mut store, FileKind::Output, bound);
                w.extend_from_slice(&mut store, &data[..head]).unwrap();
                w.extend_from_slice(&mut store, &data[head..]).unwrap();
                assert_eq!(w.count(), len);
                let written = w.finish();
                let mut store = (bed.reopen)(store, &dir);

                for file in [&loaded, &written] {
                    let at = format!("bound {bound} len {len}");
                    assert_eq!(file.count(), len, "{at}");
                    assert_eq!(file.page_count(), len.div_ceil(p), "{at}");
                    assert_eq!(store.file_pages(file.file_id()), Ok(file.pages()), "{at}");
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
                        assert_eq!(&out[1..], &data[start..end], "{at} [{start}, {end})");
                        let reads = (store.stats().reads - before) as usize;
                        assert_eq!(reads, pages_touched(start, end, p), "{at} [{start}, {end})");
                    }
                    let past = file.read_range(&mut store, 0, len + 1, &mut Vec::new());
                    assert!(
                        matches!(past, Err(StorageError::SlotOutOfBounds { .. })),
                        "{at}"
                    );
                }
            }
        }
    }

    fn pieces_write_what_one_call_writes<S: PageStore>(bed: Bed<S>) {
        let mut rng = Rng::from_seed(0x5EED_0513);
        for bound in WIDEST {
            let p = PAGE_SIZE / width_of(bound);
            for len in lens(p).into_iter().chain([3 * p - 36, 4 * p]) {
                let data = values(len, bound, &mut rng);
                let mut cuts: Vec<usize> = (0..5).map(|_| rng.random_range(0..=len)).collect();
                cuts.extend([0, len]);
                cuts.sort_unstable();
                let at = format!("bound {bound} len {len}");

                let dirs = [(); 2].map(|()| TempDir::new("tc-valuefile-pieces").unwrap());
                let [mut whole_store, mut pieces_store] = dirs.each_ref().map(bed.fresh);
                let mut whole = ValueWriter::new(&mut whole_store, FileKind::Output, bound);
                let mut pieces = ValueWriter::new(&mut pieces_store, FileKind::Output, bound);
                whole.extend_from_slice(&mut whole_store, &data).unwrap();
                let mut requests = 0;
                for cut in cuts.windows(2) {
                    pieces
                        .extend_from_slice(&mut pieces_store, &data[cut[0]..cut[1]])
                        .unwrap();
                    requests += pages_touched(cut[0], cut[1], p);
                }
                // On a direct pager every request to write is one write.
                assert_eq!(
                    whole_store.stats().writes as usize,
                    pages_touched(0, len, p),
                    "{at}"
                );
                assert_eq!(pieces_store.stats().writes as usize, requests, "{at}");

                let (whole, pieces) = (whole.finish(), pieces.finish());
                assert_eq!(pieces.count(), whole.count(), "{at}");
                assert_eq!(pieces.pages(), whole.pages(), "{at}");
                let [dir_w, dir_p] = dirs.each_ref();
                let mut whole_store = (bed.reopen)(whole_store, dir_w);
                let mut pieces_store = (bed.reopen)(pieces_store, dir_p);
                for &pid in whole.pages() {
                    let (mut a, mut b) = (Page::new(), Page::new());
                    whole_store.read_page(pid, &mut a).unwrap();
                    pieces_store.read_page(pid, &mut b).unwrap();
                    assert!(a == b, "{at}: image of {pid:?} differs");
                }
            }
        }
    }

    #[test]
    fn get_reads_one_value_from_its_page() {
        let mut rng = Rng::from_seed(0x5EED_0514);
        for bound in WIDEST {
            let p = PAGE_SIZE / width_of(bound);
            let len = 3 * p + 5;
            let data = values(len, bound, &mut rng);
            let mut disk = DiskSim::new();
            let file = ValueFile::bulk_load(&mut disk, FileKind::Output, bound, &data).unwrap();
            let mut ats = vec![0, len - 1];
            for page in 1..=3 {
                let boundary = page * p;
                ats.extend([boundary - 1, boundary, boundary + 1]);
            }
            for at in ats {
                let mut want = Vec::new();
                file.read_range(&mut disk, at, at + 1, &mut want).unwrap();
                let before = disk.stats().reads;
                assert_eq!(
                    file.get(&mut disk, at).unwrap(),
                    want[0],
                    "bound {bound} at {at}"
                );
                assert_eq!(
                    disk.stats().reads - before,
                    1,
                    "bound {bound} at {at}: one request"
                );
            }
            for at in [len, len + p] {
                assert_eq!(
                    file.get(&mut disk, at),
                    Err(StorageError::SlotOutOfBounds {
                        slot: at,
                        capacity: len
                    })
                );
            }
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

    /// One case: a bound, values below it around the width's page
    /// capacity, the cuts a piecewise writer splits them at, and the
    /// medium.
    #[derive(Clone)]
    struct Case {
        bound: u64,
        values: Vec<u32>,
        cuts: Vec<usize>,
        file: bool,
        seed: u64,
    }

    /// A failure report names the case, not its thousands of values:
    /// the seed replays it.
    impl std::fmt::Debug for Case {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Case")
                .field("bound", &self.bound)
                .field("len", &self.values.len())
                .field("cuts", &self.cuts)
                .field("file", &self.file)
                .finish_non_exhaustive()
        }
    }

    fn case(rng: &mut Rng) -> Case {
        let bound = BOUNDS[rng.random_range(0..BOUNDS.len())];
        let p = PAGE_SIZE / width_of(bound);
        let len = match rng.random_range(0..4u32) {
            0 => rng.random_range(0..3usize),
            1 => p - 1 + rng.random_range(0..3usize),
            2 => 2 * p - 1 + rng.random_range(0..3usize),
            _ => rng.random_range(0..3 * p + 2),
        };
        // The top value and zero are drawn often, to reach the high byte.
        let values: Vec<u32> = (0..len)
            .map(|_| match rng.random_range(0..4u32) {
                0 => (bound - 1) as u32,
                1 => 0,
                _ => (rng.next_u64() % bound) as u32,
            })
            .collect();
        let mut cuts: Vec<usize> = (0..rng.random_range(0..6usize))
            .map(|_| rng.random_range(0..=len))
            .collect();
        cuts.extend([0, len]);
        cuts.sort_unstable();
        Case {
            bound,
            values,
            cuts,
            file: rng.random_range(0..2u32) == 0,
            seed: rng.next_u64(),
        }
    }

    /// Every way a file is written holds the values it was given at the
    /// width its bound sets, on the page capacity that width allows: one
    /// bulk load, one append, the same appends in pieces (whose pages
    /// are those of the one append, ids and bytes), and a value at the
    /// bound is refused before anything is written.
    fn widths_round_trip<S: PageStore>(bed: Bed<S>, c: &Case) -> Result<(), String> {
        let (data, bound) = (&c.values, c.bound);
        let (p, len) = (PAGE_SIZE / width_of(bound), c.values.len());
        let mut rng = Rng::from_seed(c.seed);
        // The one append and the pieces each start a fresh store, so
        // their page ids must match too; the bulk load follows the one
        // append on its store.
        let dirs = [(); 2].map(|()| TempDir::new("tc-valuefile-widths").unwrap());
        let [mut one, mut split] = dirs.each_ref().map(bed.fresh);
        let mut whole = ValueWriter::new(&mut one, FileKind::Output, bound);
        whole.extend_from_slice(&mut one, data).unwrap();
        // On a direct pager every request to write is one write.
        require_eq!(
            one.stats().writes as usize,
            pages_touched(0, len, p),
            "one append"
        );
        let loaded = ValueFile::bulk_load(&mut one, FileKind::Output, bound, data).unwrap();
        let mut pieces = ValueWriter::new(&mut split, FileKind::Output, bound);
        for cut in c.cuts.windows(2) {
            let before = split.stats().writes;
            pieces
                .extend_from_slice(&mut split, &data[cut[0]..cut[1]])
                .unwrap();
            require_eq!(
                (split.stats().writes - before) as usize,
                pages_touched(cut[0], cut[1], p),
                "piece [{}, {})",
                cut[0],
                cut[1]
            );
        }
        if let Ok(top) = u32::try_from(bound) {
            let (count, pages, writes) = (pieces.count(), split.page_count(), split.stats().writes);
            let refused = pieces.extend_from_slice(&mut split, &[0, top]);
            require_eq!(
                refused,
                Err(StorageError::ValueOutOfRange { value: top, bound })
            );
            let refused = ValueFile::bulk_load(&mut split, FileKind::Output, bound, &[top]);
            require!(refused.is_err(), "bulk_load stored {top} below {bound}");
            require_eq!(
                (pieces.count(), split.page_count(), split.stats().writes),
                (count, pages, writes),
                "a refused call wrote something"
            );
        }
        let (whole, pieces) = (whole.finish(), pieces.finish());
        require_eq!(pieces.pages(), whole.pages());
        let [dir_one, dir_split] = dirs.each_ref();
        let mut stores = [(bed.reopen)(one, dir_one), (bed.reopen)(split, dir_split)];

        for (file, on) in [(&loaded, 0), (&whole, 0), (&pieces, 1)] {
            require_eq!(file.count(), len);
            require_eq!(file.values_per_page(), p);
            require_eq!(file.page_count(), len.div_ceil(p));
            require_eq!(stores[on].file_pages(file.file_id()), Ok(file.pages()));
            for at in 0..file.page_count() {
                let (mut a, mut b) = (Page::new(), Page::new());
                stores[0].read_page(whole.pages()[at], &mut a).unwrap();
                stores[on].read_page(file.pages()[at], &mut b).unwrap();
                require!(a == b, "page {at} differs from the one append's");
            }
            let store = &mut stores[on];
            let mut ranges = vec![(0, len), (0, 0), (len, len), (len / 2, len / 2)];
            for _ in 0..12 {
                let start = rng.random_range(0..=len);
                ranges.push((start, rng.random_range(start..=len)));
            }
            for (start, end) in ranges {
                let mut out = vec![u32::MAX];
                let before = store.stats().reads;
                file.read_range(store, start, end, &mut out).unwrap();
                require_eq!(out[0], u32::MAX, "read_range appends");
                require_eq!(&out[1..], &data[start..end], "[{start}, {end})");
                require_eq!(
                    (store.stats().reads - before) as usize,
                    pages_touched(start, end, p),
                    "[{start}, {end})"
                );
            }
            let mut ats: Vec<usize> = (0..8).map(|_| rng.random_range(0..len.max(1))).collect();
            ats.extend((1..=len / p).flat_map(|page| [page * p - 1, page * p]));
            for at in ats.into_iter().filter(|&at| at < len) {
                let before = store.stats().reads;
                require_eq!(file.get(store, at), Ok(data[at]), "at {at}");
                require_eq!(store.stats().reads - before, 1, "at {at}: one request");
            }
            for at in [len, len + p] {
                require_eq!(
                    file.get(store, at),
                    Err(StorageError::SlotOutOfBounds {
                        slot: at,
                        capacity: len
                    })
                );
            }
            let past = file.read_range(store, 0, len + 1, &mut Vec::new());
            require!(matches!(past, Err(StorageError::SlotOutOfBounds { .. })));
        }
        Ok(())
    }

    #[test]
    fn value_file_widths_round_trip_at_every_bound_edge() {
        Checker::new("value_file_widths_round_trip_at_every_bound_edge")
            .cases(64)
            .run(case, shrink_none, |c| match c.file {
                false => widths_round_trip(SIM, c),
                true => widths_round_trip(FILE, c),
            });
    }
}
