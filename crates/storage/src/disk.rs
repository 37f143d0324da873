//! The simulated disk: page-granular storage with full I/O accounting.
//!
//! The paper's experiments run against a *simulated* buffer manager that
//! records the number of page I/Os (§6.1); wall-clock time is then compared
//! with an estimated I/O time of 20 ms per page transfer. [`DiskSim`] is
//! that disk: it stores page images, tags every page with the file it
//! belongs to, and counts physical reads and writes, broken down by file
//! kind so that the harness can report relation vs. index vs.
//! successor-list traffic separately.
//!
//! `DiskSim` is one of two implementations of the
//! [`PageStore`](crate::PageStore) backend trait — the in-memory,
//! counting one. The file-backed one lives in
//! [`crate::FileStore`]; both are driven through the trait.

use crate::error::{StorageError, StorageResult};
use crate::fault::{FaultPlan, RetryPolicy, RetryTally};
use crate::page::{Page, PageId};
use crate::store::PageStore;
use std::fmt;
use tc_trace::{Event, Kind, Tracer};

/// What role a file plays in the study's storage layout.
///
/// The breakdown lets the experiment harness attribute I/O the way the
/// paper discusses it: input-relation scans and index probes during the
/// restructuring phase versus successor-list traffic during the
/// computation phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FileKind {
    /// The input relation, clustered on the source attribute.
    Relation,
    /// The arc-reversed relation, clustered on the destination attribute
    /// (the dual representation required by `JKB2`, paper §4.1).
    InverseRelation,
    /// Sparse clustered-index pages.
    Index,
    /// Successor-list / successor-tree pages (the paper's 30-block format).
    SuccessorList,
    /// Scratch space (external-sort runs, seminaive deltas).
    Temp,
    /// Materialized query output.
    Output,
}

impl FileKind {
    /// All kinds, in reporting order.
    pub const ALL: [FileKind; 6] = [
        FileKind::Relation,
        FileKind::InverseRelation,
        FileKind::Index,
        FileKind::SuccessorList,
        FileKind::Temp,
        FileKind::Output,
    ];

    /// Stable index of this kind into per-kind counter arrays.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            FileKind::Relation => 0,
            FileKind::InverseRelation => 1,
            FileKind::Index => 2,
            FileKind::SuccessorList => 3,
            FileKind::Temp => 4,
            FileKind::Output => 5,
        }
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FileKind::Relation => "relation",
            FileKind::InverseRelation => "inverse-relation",
            FileKind::Index => "index",
            FileKind::SuccessorList => "successor-list",
            FileKind::Temp => "temp",
            FileKind::Output => "output",
        }
    }
}

/// Identifier of a file (an extent of pages) on a page store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FileId(pub u32);

pub(crate) struct FileMeta {
    pub(crate) kind: FileKind,
    pub(crate) pages: Vec<PageId>,
}

/// Physical I/O counters, overall and broken down by [`FileKind`].
///
/// Counter snapshots subtract cleanly, which is how the engine attributes
/// I/O to the restructuring versus computation phases.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct DiskStats {
    /// Total physical page reads.
    pub reads: u64,
    /// Total physical page writes.
    pub writes: u64,
    /// Physical reads by file kind (indexed by [`FileKind::idx`]).
    pub reads_by_kind: [u64; 6],
    /// Physical writes by file kind (indexed by [`FileKind::idx`]).
    pub writes_by_kind: [u64; 6],
}

impl DiskStats {
    /// Total physical I/Os (reads + writes).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Counter-wise difference `self - earlier`; used for phase attribution.
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    pub fn since(&self, earlier: &DiskStats) -> DiskStats {
        debug_assert!(self.reads >= earlier.reads && self.writes >= earlier.writes);
        let mut out = DiskStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            ..DiskStats::default()
        };
        for i in 0..6 {
            out.reads_by_kind[i] = self.reads_by_kind[i] - earlier.reads_by_kind[i];
            out.writes_by_kind[i] = self.writes_by_kind[i] - earlier.writes_by_kind[i];
        }
        out
    }
}

impl fmt::Display for DiskStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} reads, {} writes", self.reads, self.writes)
    }
}

/// The I/O latency model used to estimate elapsed I/O time.
///
/// The paper established ~20 ms per page I/O for its RZ24 disk by separate
/// measurement and multiplies the simulated I/O count by it (§6.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IoCostModel {
    /// Milliseconds charged per physical page I/O.
    pub ms_per_io: f64,
}

impl Default for IoCostModel {
    fn default() -> Self {
        IoCostModel { ms_per_io: 20.0 }
    }
}

impl IoCostModel {
    /// Estimated I/O time in seconds for `ios` page transfers.
    pub fn estimate_seconds(&self, ios: u64) -> f64 {
        ios as f64 * self.ms_per_io / 1000.0
    }
}

/// A simulated disk.
///
/// Pages live in memory but every [`PageStore::read_page`] /
/// [`PageStore::write_page`] is counted as a physical transfer. Higher
/// layers access pages through the buffer pool, so these counters reflect
/// buffer misses and dirty-page write-backs — the paper's primary cost
/// metric.
///
/// All page and file operations live in the [`PageStore`] impl below;
/// `DiskSim` itself only constructs.
pub struct DiskSim {
    files: Vec<FileMeta>,
    pages: Vec<Page>,
    page_file: Vec<FileId>,
    /// [`Page::checksum`] of each page, recorded on write and verified on
    /// read while a fault plan is armed (silent corruption is detected,
    /// never absorbed).
    checksums: Vec<u64>,
    free_pages: Vec<PageId>,
    stats: DiskStats,
    fault: Option<FaultPlan>,
    /// Retry policy of the *direct* pager path (tests and bulk loads);
    /// buffered access retries in `tc-buffer` instead.
    retry: RetryPolicy,
    retry_tally: RetryTally,
    /// Event tracer; disabled (free) unless the engine arms one for a
    /// run. Emits one event per successful transfer and per injection.
    tracer: Tracer,
}

impl DiskSim {
    /// Creates an empty disk.
    pub fn new() -> Self {
        DiskSim {
            files: Vec::new(),
            pages: Vec::new(),
            page_file: Vec::new(),
            checksums: Vec::new(),
            free_pages: Vec::new(),
            stats: DiskStats::default(),
            fault: None,
            retry: RetryPolicy::default(),
            retry_tally: RetryTally::default(),
            tracer: Tracer::disabled(),
        }
    }
}

impl Default for DiskSim {
    fn default() -> Self {
        DiskSim::new()
    }
}

impl PageStore for DiskSim {
    fn new_file(&mut self, kind: FileKind) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(FileMeta {
            kind,
            pages: Vec::new(),
        });
        id
    }

    fn alloc(&mut self, file: FileId) -> StorageResult<PageId> {
        if file.0 as usize >= self.files.len() {
            return Err(StorageError::UnknownFile(file.0));
        }
        // Reuse space released by drop_file before growing the disk.
        let pid = if let Some(pid) = self.free_pages.pop() {
            self.pages[pid.index()].clear();
            self.checksums[pid.index()] = Page::ZERO_CHECKSUM;
            self.page_file[pid.index()] = file;
            pid
        } else {
            let pid = PageId(self.pages.len() as u32);
            self.checksums.push(Page::ZERO_CHECKSUM);
            self.pages.push(Page::new());
            self.page_file.push(file);
            pid
        };
        self.files[file.0 as usize].pages.push(pid);
        Ok(pid)
    }

    fn drop_file(&mut self, file: FileId) -> StorageResult<()> {
        let meta = self
            .files
            .get_mut(file.0 as usize)
            .ok_or(StorageError::UnknownFile(file.0))?;
        self.free_pages.append(&mut meta.pages);
        Ok(())
    }

    /// Physically reads page `pid` into `out`, counting one read.
    ///
    /// With a fault plan armed the attempt may fail instead (transient or
    /// permanent fault), and the page image is checksum-verified so a
    /// torn write surfaces as [`StorageError::ChecksumMismatch`]. Failed
    /// attempts are *not* counted in [`DiskStats`]: the I/O counters keep
    /// recording exactly the successful transfers, so a transient-fault
    /// run reports the same page-I/O metrics as a fault-free one.
    fn read_page(&mut self, pid: PageId, out: &mut Page) -> StorageResult<()> {
        if pid.index() >= self.pages.len() {
            return Err(StorageError::PageOutOfBounds(pid));
        }
        let op = match self.fault.as_mut() {
            Some(plan) => match plan.on_read(pid) {
                Ok(op) => Some(op),
                Err(e) => {
                    self.tracer.emit(Event::FaultInjected {
                        page: pid.0,
                        write: false,
                    });
                    return Err(e);
                }
            },
            None => None,
        };
        out.bytes_mut()
            .copy_from_slice(self.pages[pid.index()].bytes());
        if let Some(op) = op {
            let stored = self.checksums[pid.index()];
            let computed = out.checksum();
            if computed != stored {
                if let Some(plan) = self.fault.as_mut() {
                    plan.on_detection(op, pid);
                }
                self.tracer.emit(Event::CorruptionDetected { page: pid.0 });
                return Err(StorageError::ChecksumMismatch {
                    pid,
                    stored,
                    computed,
                });
            }
        }
        self.stats.reads += 1;
        let file = self.page_file[pid.index()];
        let kind = self.files[file.0 as usize].kind;
        self.stats.reads_by_kind[kind.idx()] += 1;
        self.tracer.emit(Event::PageRead {
            page: pid.0,
            kind: Kind::from_idx(kind.idx()),
        });
        Ok(())
    }

    /// Physically writes `data` to page `pid`, counting one write.
    ///
    /// With a fault plan armed the attempt may fail transiently, or be
    /// *torn*: the call reports success but one stored byte is flipped
    /// while the recorded checksum still describes the intended image, so
    /// the next physical read detects the damage.
    fn write_page(&mut self, pid: PageId, data: &Page) -> StorageResult<()> {
        if pid.index() >= self.pages.len() {
            return Err(StorageError::PageOutOfBounds(pid));
        }
        let corrupt_at = match self.fault.as_mut() {
            Some(plan) => match plan.on_write(pid) {
                Ok((_, off)) => off,
                Err(e) => {
                    self.tracer.emit(Event::FaultInjected {
                        page: pid.0,
                        write: true,
                    });
                    return Err(e);
                }
            },
            None => None,
        };
        // Record the checksum of the bytes the writer intended; a torn
        // write leaves it stale so verification catches the corruption.
        self.checksums[pid.index()] = data.checksum();
        let dst = &mut self.pages[pid.index()];
        dst.bytes_mut().copy_from_slice(data.bytes());
        if let Some(off) = corrupt_at {
            // A torn write is a silent injection: it reports success.
            dst.bytes_mut()[off] ^= 0xFF;
            self.tracer.emit(Event::FaultInjected {
                page: pid.0,
                write: true,
            });
        }
        self.stats.writes += 1;
        let file = self.page_file[pid.index()];
        let kind = self.files[file.0 as usize].kind;
        self.stats.writes_by_kind[kind.idx()] += 1;
        self.tracer.emit(Event::PageWrite {
            page: pid.0,
            kind: Kind::from_idx(kind.idx()),
        });
        Ok(())
    }

    /// Durability is not modeled by the simulator: all pages are always
    /// "persistent" in memory, so `sync` is a counted-nothing no-op.
    fn sync(&mut self) -> StorageResult<()> {
        Ok(())
    }

    fn file_pages(&self, file: FileId) -> &[PageId] {
        &self.files[file.0 as usize].pages
    }

    fn file_kind(&self, file: FileId) -> FileKind {
        self.files[file.0 as usize].kind
    }

    fn page_file(&self, pid: PageId) -> StorageResult<FileId> {
        self.page_file
            .get(pid.index())
            .copied()
            .ok_or(StorageError::PageOutOfBounds(pid))
    }

    fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn stats(&self) -> &DiskStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DiskStats::default();
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    fn note_retries(&mut self, tally: RetryTally) {
        self.retry_tally.absorb(tally);
    }

    fn retry_tally(&self) -> RetryTally {
        self.retry_tally
    }

    fn backend_name(&self) -> &'static str {
        "sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    #[test]
    fn alloc_and_rw_counts_io() {
        let mut d = DiskSim::new();
        let f = d.new_file(FileKind::Relation);
        let p = d.alloc(f).unwrap();
        assert_eq!(d.stats().total(), 0, "allocation is free");

        let mut page = Page::new();
        page.put_u32(0, 7);
        d.write_page(p, &page).unwrap();
        let mut back = Page::new();
        d.read_page(p, &mut back).unwrap();
        assert_eq!(back.get_u32(0), 7);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads_by_kind[FileKind::Relation.idx()], 1);
    }

    #[test]
    fn files_track_their_pages() {
        let mut d = DiskSim::new();
        let f1 = d.new_file(FileKind::Relation);
        let f2 = d.new_file(FileKind::SuccessorList);
        let a = d.alloc(f1).unwrap();
        let b = d.alloc(f2).unwrap();
        let c = d.alloc(f1).unwrap();
        assert_eq!(d.file_pages(f1), &[a, c]);
        assert_eq!(d.file_pages(f2), &[b]);
        assert_eq!(d.page_file(b).unwrap(), f2);
        assert_eq!(d.file_kind(f2), FileKind::SuccessorList);
    }

    #[test]
    fn out_of_bounds_page_errors() {
        let mut d = DiskSim::new();
        let mut p = Page::new();
        assert_eq!(
            d.read_page(PageId(3), &mut p),
            Err(StorageError::PageOutOfBounds(PageId(3)))
        );
    }

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
    fn cost_model_estimates() {
        let m = IoCostModel::default();
        assert!((m.estimate_seconds(100) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn direct_pager_charges_every_access() {
        // The Pager surface is the blanket impl over PageStore — one
        // trait-object path, no inherent shims.
        let mut d = DiskSim::new();
        let f = d.create_file(FileKind::Temp);
        let p = d.alloc_page(f).unwrap();
        let mut sink = 0u32;
        d.with_page_mut(p, &mut |pg: &mut Page| pg.put_u32(0, 5))
            .unwrap();
        d.with_page(p, &mut |pg: &Page| sink = pg.get_u32(0))
            .unwrap();
        assert_eq!(sink, 5);
        // with_page_mut = read + write, with_page = read.
        assert_eq!(d.stats().reads, 2);
        assert_eq!(d.stats().writes, 1);
    }
}
