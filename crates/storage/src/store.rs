//! The storage substrate behind the buffer pool: the [`PageStore`]
//! contract, its one implementation [`Store`], and the [`Backend`]
//! selector.
//!
//! The paper's instrument is a disk that counts page transfers (§6.1).
//! [`Store<M>`](Store) is that instrument, written once: it owns the
//! file [`Catalog`], the LIFO free-page list, [`DiskStats`], the
//! [`FaultPlan`] consult, the one retry loop, the [`Tracer`] and every
//! event emission, over a byte [`Medium`] that only moves page images.
//! The three stores the rest of the workspace names are aliases:
//!
//! * [`crate::DiskSim`] = `Store<Mem>` — in memory (the default);
//! * [`crate::FileStore`] = `Store<Segment>` — a segment file with
//!   per-slot checksums plus an atomically replaced manifest;
//! * [`crate::FrozenStore`] = `Store<Frozen>` — a shared immutable page
//!   set, mutations refused.
//!
//! Allocation decisions, charged transfers and emitted events are
//! therefore identical on every medium by construction, not by test.
//!
//! Every [`PageStore`] also gets the direct (unbuffered) [`Pager`]
//! implementation via the blanket impl below — the trait-object path for
//! bulk loads and tests.

use crate::disk::{verify_image, DiskSim, DiskStats, FileId, FileKind};
use crate::error::{StorageError, StorageResult};
use crate::fault::{FaultKind, FaultPlan};
use crate::file_store::{FileStore, TempDir};
use crate::frozen::FrozenPageSet;
use crate::medium::{Catalog, FileMeta, Medium};
use crate::page::{Page, PageId};
use crate::pager::Pager;
use std::path::PathBuf;
use std::sync::Arc;
use tc_trace::{Event, Tracer};

/// What the buffer pool, the engine and the experiment harness need
/// from the substrate.
///
/// A `Box<dyn PageStore>` is threaded through `tc-buffer` pools and
/// `Database`s so the upper layers do not know which medium they run
/// on. [`Store`] is the only implementation; a new backend implements
/// [`Medium`], not this trait. Stores are `Send`: the experiment
/// scheduler ships a fresh one (inside its `Database`) to a worker
/// thread per cell.
///
/// # Counting contract
///
/// * [`read_page`](PageStore::read_page) / [`write_page`](PageStore::write_page)
///   charge exactly one read/write to [`stats`](PageStore::stats) per
///   *successful* transfer and emit one `PageRead`/`PageWrite` trace
///   event; failed attempts (injected faults, detected corruption)
///   charge nothing.
/// * A transient fault is retried inside the call, up to 4 attempts in
///   all, with an accounted (never slept) backoff of 1 ms that doubles
///   per retry; then it is [`StorageError::RetriesExhausted`]. Retries
///   and backoff are counted in [`stats`](PageStore::stats) and reported
///   as one `Retry` event after the transfer's own events. Pooled,
///   direct and bulk-load transfers are all retried this way.
/// * [`alloc`](PageStore::alloc) and [`drop_file`](PageStore::drop_file)
///   are catalog operations: never charged, never traced.
/// * Free pages are reused LIFO ([`drop_file`](PageStore::drop_file)
///   appends a file's pages in allocation order;
///   [`alloc`](PageStore::alloc) pops from the end) so page-id streams —
///   and therefore trace digests — are identical on every medium.
pub trait PageStore: Send {
    /// Creates a new, empty file of the given kind.
    fn new_file(&mut self, kind: FileKind) -> FileId;

    /// Appends a fresh zeroed page to `file` and returns its id,
    /// reusing freed pages (LIFO) before growing the store.
    /// Allocation itself is not counted as an I/O.
    fn alloc(&mut self, file: FileId) -> StorageResult<PageId>;

    /// Deletes `file`, releasing all its pages for reuse. A catalog
    /// operation: charges no I/O. The caller must ensure no buffered
    /// copies of the pages remain (the buffer pool's `free_file` evicts
    /// first).
    fn drop_file(&mut self, file: FileId) -> StorageResult<()>;

    /// Physically reads page `pid` into `out`, counting one read on
    /// success and emitting one `PageRead` event.
    fn read_page(&mut self, pid: PageId, out: &mut Page) -> StorageResult<()> {
        self.admit_read(pid, Some(out))
    }

    /// The read admission sequence, which every physical read runs:
    /// bounds check, fault-plan consult, the medium (verifying the image
    /// while a plan is armed), then one read charged and one `PageRead`
    /// event. With `out` absent the image is admitted but not moved, for
    /// a reader that borrows it from [`lent`](PageStore::lent) instead
    /// (an error on a store that lends nothing).
    fn admit_read(&mut self, pid: PageId, out: Option<&mut Page>) -> StorageResult<()>;

    /// The page set this store lends its readers, if its medium is
    /// immutable and in memory (a frozen capture); `None` on a medium
    /// whose readers must keep their own copy of a page.
    fn lent(&self) -> Option<&FrozenPageSet>;

    /// Physically writes `data` to page `pid`, counting one write on
    /// success and emitting one `PageWrite` event.
    fn write_page(&mut self, pid: PageId, data: &Page) -> StorageResult<()>;

    /// Durability point: persists page images and store metadata (free
    /// list, file directory) so a reopen recovers them. A no-op for the
    /// media without a reopen. Never counted as I/O and never traced.
    fn sync(&mut self) -> StorageResult<()>;

    /// The pages belonging to `file`, in allocation order (none once it
    /// is dropped); [`StorageError::UnknownFile`] for a [`FileId`] this
    /// store never issued.
    fn file_pages(&self, file: FileId) -> StorageResult<&[PageId]>;

    /// The kind of `file`; [`StorageError::UnknownFile`] for a
    /// [`FileId`] this store never issued.
    fn file_kind(&self, file: FileId) -> StorageResult<FileKind>;

    /// The store's bookkeeping: file table, page owners, free list.
    fn catalog(&self) -> &Catalog;

    /// The file a page belongs to.
    fn page_file(&self, pid: PageId) -> StorageResult<FileId>;

    /// Number of page slots the store addresses, released ones
    /// included.
    fn page_count(&self) -> usize;

    /// Physical I/O counters.
    fn stats(&self) -> &DiskStats;

    /// Resets the I/O counters (e.g. after a bulk load, which the paper
    /// does not charge to the queries).
    fn reset_stats(&mut self);

    /// Attaches (or, with a disabled tracer, detaches) the event tracer.
    fn set_tracer(&mut self, tracer: Tracer);

    /// Arms deterministic fault injection: subsequent page transfers are
    /// subjected to `plan`'s schedule and probability draws. Replaces
    /// any previous plan.
    fn set_fault_plan(&mut self, plan: FaultPlan);

    /// Disarms fault injection, returning the plan if one was armed. The
    /// faults it injected are the store's `FaultInjected` events; their
    /// tallies are in [`stats`](PageStore::stats).
    fn clear_fault_plan(&mut self) -> Option<FaultPlan>;

    /// Short stable backend name (`"sim"`, `"file"`, `"frozen"`), used
    /// in reports and error messages.
    fn backend_name(&self) -> &'static str;
}

/// Attempts a transfer gets, the first included, before a transient
/// fault becomes [`StorageError::RetriesExhausted`].
const MAX_ATTEMPTS: u32 = 4;

/// Accounted backoff before the first retry, in milliseconds; it doubles
/// per retry. Never slept: the store stays wall-clock-free.
const BACKOFF_BASE_MS: u64 = 1;

/// The accounting core: one counting, tracing, fault-injecting page
/// store over any [`Medium`].
///
/// Every transfer runs in the same order on every medium: bounds check
/// against the catalog, fault-plan consult, the medium, then charge and
/// emit. Catalog changes commit only after the medium succeeded, so a
/// failed or refused operation leaves catalog, free list and page count
/// exactly as they were.
pub struct Store<M: Medium> {
    medium: M,
    /// Shared so a frozen view opens without copying it; a store that
    /// mutates holds the only reference, so `make_mut` never copies
    /// there.
    catalog: Arc<Catalog>,
    stats: DiskStats,
    fault: Option<FaultPlan>,
    /// Disabled (free) unless the engine arms one for a run.
    tracer: Tracer,
}

impl<M: Medium> Store<M> {
    /// An empty store over an empty `medium`.
    pub fn over(medium: M) -> Store<M> {
        Store::with_catalog(medium, Arc::default())
    }

    /// A store over a `medium` that already holds the pages `catalog`
    /// describes (a reopened or captured one), with fresh counters.
    pub fn with_catalog(medium: M, catalog: Arc<Catalog>) -> Store<M> {
        Store {
            medium,
            catalog,
            stats: DiskStats::default(),
            fault: None,
            tracer: Tracer::disabled(),
        }
    }

    /// The medium under this store.
    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// Takes the store apart into its medium and catalog; counters,
    /// tracer and fault plan go with the store.
    pub(crate) fn into_parts(self) -> (M, Arc<Catalog>) {
        (self.medium, self.catalog)
    }

    /// Counts and emits one event: the store's counters are the fold of
    /// the events it emits, [`DiskStats::on`], and nothing else.
    #[inline(always)]
    fn note(&mut self, ev: Event) {
        self.stats.on(&ev);
        self.tracer.emit(ev);
    }

    fn note_fault(&mut self, pid: PageId, fault: FaultKind) {
        self.note(Event::FaultInjected { page: pid.0, fault });
    }

    /// The one retry loop: runs `attempt` again while it fails
    /// transiently, up to [`MAX_ATTEMPTS`] in all, charging an accounted
    /// backoff per retry. Any other outcome ends it. Retries are counted
    /// and reported after the transfer's own events, whatever it
    /// returned.
    fn retrying(
        &mut self,
        mut attempt: impl FnMut(&mut Self) -> StorageResult<()>,
    ) -> StorageResult<()> {
        let (mut retries, mut backoff_ms) = (0u32, 0u64);
        let outcome = loop {
            match attempt(self) {
                Err(StorageError::TransientIo { pid, .. }) if retries + 1 == MAX_ATTEMPTS => {
                    break Err(StorageError::RetriesExhausted {
                        pid,
                        attempts: MAX_ATTEMPTS,
                    });
                }
                Err(StorageError::TransientIo { .. }) => {
                    backoff_ms += BACKOFF_BASE_MS << retries;
                    retries += 1;
                }
                other => break other,
            }
        };
        if retries > 0 {
            let n = u64::from(retries);
            self.note(Event::Retry { n, backoff_ms });
        }
        outcome
    }

    /// One read attempt: bounds check, fault-plan consult, the medium
    /// (verifying the image while a plan is armed), then the charge and
    /// the `PageRead` event. Failed attempts are *not* counted:
    /// [`DiskStats`] records exactly the successful transfers, so a
    /// transient-fault run reports the same page-I/O metrics as a
    /// fault-free one.
    fn read_once(&mut self, pid: PageId, out: Option<&mut Page>) -> StorageResult<()> {
        let kind = self.catalog.page_kind(pid)?;
        if let Some(Err((fault, e))) = self.fault.as_mut().map(|plan| plan.on_read(pid)) {
            self.note_fault(pid, fault);
            return Err(e);
        }
        let verify = self.fault.is_some();
        let moved = match (out, self.medium.lent()) {
            (Some(out), _) => self.medium.read(pid, out, verify),
            (None, Some(set)) => set
                .image(pid)
                .and_then(|(image, sum)| verify_image(image, verify.then_some(*sum), pid)),
            (None, None) => Err(StorageError::Internal(
                "in-place read of a medium that lends no pages",
            )),
        };
        if let Err(e) = moved {
            if matches!(e, StorageError::ChecksumMismatch { .. }) {
                self.note(Event::CorruptionDetected { page: pid.0 });
            }
            return Err(e);
        }
        self.note(Event::PageRead { page: pid.0, kind });
        Ok(())
    }

    /// One write attempt. Under a fault plan it may fail transiently, or
    /// be *torn*: it reports success but one stored byte is flipped
    /// while the medium's integrity data still describes the intended
    /// image, so the next physical read detects the damage.
    fn write_once(&mut self, pid: PageId, data: &Page) -> StorageResult<()> {
        self.medium.writable()?;
        let kind = self.catalog.page_kind(pid)?;
        let tear_at = match self.fault.as_mut().map(|plan| plan.on_write(pid)) {
            Some(Err((fault, e))) => {
                self.note_fault(pid, fault);
                return Err(e);
            }
            Some(Ok(tear_at)) => tear_at,
            None => None,
        };
        self.medium.write(pid, data, tear_at)?;
        if tear_at.is_some() {
            // A torn write is a silent injection: it reports success.
            self.note_fault(pid, FaultKind::Corrupt);
        }
        self.note(Event::PageWrite { page: pid.0, kind });
        Ok(())
    }
}

impl<M: Medium + Default> Default for Store<M> {
    fn default() -> Self {
        Store::over(M::default())
    }
}

impl<M: Medium> PageStore for Store<M> {
    /// Cannot fail, so a read-only medium hands out ids too; allocating
    /// on them is what gets refused.
    fn new_file(&mut self, kind: FileKind) -> FileId {
        let files = &mut Arc::make_mut(&mut self.catalog).files;
        files.push(FileMeta {
            kind,
            pages: Vec::new(),
        });
        FileId(files.len() as u32 - 1)
    }

    fn alloc(&mut self, file: FileId) -> StorageResult<PageId> {
        self.medium.writable()?;
        self.catalog.file(file)?;
        // Reuse space released by drop_file before growing the medium.
        let reused = self.catalog.free_pages.last().copied();
        let pid = reused.unwrap_or(PageId(self.catalog.page_file.len() as u32));
        self.medium.zero(pid)?;
        let catalog = Arc::make_mut(&mut self.catalog);
        if reused.is_some() {
            catalog.free_pages.pop();
            catalog.page_file[pid.index()] = file;
        } else {
            catalog.page_file.push(file);
        }
        catalog.files[file.0 as usize].pages.push(pid);
        Ok(pid)
    }

    fn drop_file(&mut self, file: FileId) -> StorageResult<()> {
        self.medium.writable()?;
        let catalog = Arc::make_mut(&mut self.catalog);
        let meta = catalog
            .files
            .get_mut(file.0 as usize)
            .ok_or(StorageError::UnknownFile(file.0))?;
        catalog.free_pages.append(&mut meta.pages);
        Ok(())
    }

    /// With a fault plan armed an attempt may fail instead (transient or
    /// permanent fault), and the medium verifies the image so a torn
    /// write surfaces as [`StorageError::ChecksumMismatch`]; a transient
    /// failure is retried here.
    fn admit_read(&mut self, pid: PageId, mut out: Option<&mut Page>) -> StorageResult<()> {
        self.retrying(|store| store.read_once(pid, out.as_deref_mut()))
    }

    /// With a fault plan armed an attempt may fail transiently (retried
    /// here) or be torn.
    fn write_page(&mut self, pid: PageId, data: &Page) -> StorageResult<()> {
        self.retrying(|store| store.write_once(pid, data))
    }

    fn lent(&self) -> Option<&FrozenPageSet> {
        self.medium.lent()
    }

    fn sync(&mut self) -> StorageResult<()> {
        self.medium.sync(&self.catalog)
    }

    fn file_pages(&self, file: FileId) -> StorageResult<&[PageId]> {
        Ok(&self.catalog.file(file)?.pages)
    }

    fn file_kind(&self, file: FileId) -> StorageResult<FileKind> {
        Ok(self.catalog.file(file)?.kind)
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn page_file(&self, pid: PageId) -> StorageResult<FileId> {
        self.catalog.page_file(pid)
    }

    fn page_count(&self) -> usize {
        self.catalog.page_file.len()
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

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    fn backend_name(&self) -> &'static str {
        self.medium.name()
    }
}

/// Direct, unbuffered paging over any [`PageStore`]: every access is a
/// physical transfer, retried by the store like every other.
///
/// This blanket impl is the trait-object path for structures that
/// bypass the buffer pool (bulk loads, tests). Query execution always
/// goes through the buffer pool in `tc-buffer`, which has its own
/// (buffered) `Pager` impl.
impl<S: PageStore + ?Sized> Pager for S {
    fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        let mut tmp = Page::new();
        self.read_page(pid, &mut tmp)?;
        Ok(f(&tmp))
    }

    fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> StorageResult<R> {
        let mut tmp = Page::new();
        self.read_page(pid, &mut tmp)?;
        let r = f(&mut tmp);
        self.write_page(pid, &tmp)?;
        Ok(r)
    }

    fn alloc_page(&mut self, file: FileId) -> StorageResult<PageId> {
        PageStore::alloc(self, file)
    }

    fn create_file(&mut self, kind: FileKind) -> FileId {
        PageStore::new_file(self, kind)
    }

    fn free_file(&mut self, file: FileId) -> StorageResult<()> {
        PageStore::drop_file(self, file)
    }

    fn file_page_ids(&self, file: FileId) -> StorageResult<Vec<PageId>> {
        PageStore::file_pages(self, file).map(<[PageId]>::to_vec)
    }
}

/// Which storage backend a database (or one experiment cell) runs on.
///
/// Parsed from `--backend {sim,file,file:DIR}` on `tcq`, the `section`
/// bin and `bench_baseline`. The default is the paper's simulated disk,
/// so every golden digest and the committed baseline are untouched by
/// backend plumbing.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// The in-memory counting disk ([`DiskSim`]) — the paper's
    /// instrument and the default.
    #[default]
    Sim,
    /// The real file-backed store ([`FileStore`]).
    File {
        /// Directory holding the store's segment and manifest. `None`
        /// creates a fresh unique temp directory that is removed when
        /// the store is dropped (the right default for experiment
        /// cells, which build a fresh database per run).
        dir: Option<PathBuf>,
    },
}

impl Backend {
    /// A file backend in a fresh auto-cleaned temp directory.
    pub fn file_temp() -> Backend {
        Backend::File { dir: None }
    }

    /// Parses a `--backend` argument: `sim`, `file`, or `file:DIR`.
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s {
            "sim" => Ok(Backend::Sim),
            "file" => Ok(Backend::File { dir: None }),
            other => match other.strip_prefix("file:") {
                Some(dir) if !dir.is_empty() => Ok(Backend::File {
                    dir: Some(PathBuf::from(dir)),
                }),
                _ => Err(format!(
                    "unknown backend {other:?} (expected sim, file or file:DIR)"
                )),
            },
        }
    }

    /// Short stable name, matching [`PageStore::backend_name`].
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::File { .. } => "file",
        }
    }

    /// Opens a *fresh, empty* store for this backend (existing store
    /// files in an explicit directory are truncated — this is the
    /// database-build path, not crash recovery; recover an existing
    /// store with [`FileStore::open`]).
    pub fn open(&self) -> StorageResult<Box<dyn PageStore>> {
        match self {
            Backend::Sim => Ok(Box::new(DiskSim::new())),
            Backend::File { dir: Some(dir) } => Ok(Box::new(FileStore::create(dir)?)),
            Backend::File { dir: None } => {
                let tmp = TempDir::new("tc-store")?;
                Ok(Box::new(FileStore::create_in(tmp)?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses() {
        assert_eq!(Backend::parse("sim"), Ok(Backend::Sim));
        assert_eq!(Backend::parse("file"), Ok(Backend::File { dir: None }));
        assert_eq!(
            Backend::parse("file:/tmp/x"),
            Ok(Backend::File {
                dir: Some(PathBuf::from("/tmp/x"))
            })
        );
        assert!(Backend::parse("file:").is_err());
        assert!(Backend::parse("mmap").is_err());
    }

    #[test]
    fn backend_default_is_sim() {
        assert_eq!(Backend::default(), Backend::Sim);
        assert_eq!(Backend::default().name(), "sim");
        assert_eq!(Backend::file_temp().name(), "file");
    }

    #[test]
    fn each_backend_opens_its_medium() {
        for backend in [Backend::Sim, Backend::file_temp()] {
            let store = backend.open().unwrap();
            assert_eq!(store.backend_name(), backend.name());
        }
    }

    #[test]
    fn transfers_retry_transients_and_exhaust_on_persistent_ones() {
        use crate::fault::FaultConfig;
        use tc_trace::VecSink;

        let mut disk = DiskSim::new();
        let file = disk.new_file(FileKind::Temp);
        let pid = disk.alloc(file).unwrap();
        disk.write_page(pid, &Page::new()).unwrap();
        disk.reset_stats();
        let sink = Arc::new(VecSink::unbounded());
        disk.set_tracer(Tracer::new(sink.clone()));

        // Fails twice, then succeeds: one read charged, two retries.
        disk.set_fault_plan(FaultPlan::new(
            FaultConfig::new(1)
                .at_op(0, FaultKind::TransientRead)
                .at_op(1, FaultKind::TransientRead),
        ));
        assert_eq!(disk.read_page(pid, &mut Page::new()), Ok(()));
        assert_eq!((disk.stats().reads, disk.stats().retries), (1, 2));
        assert_eq!(disk.stats().retry_backoff_ms, 1 + 2);
        let page = pid.0;
        let kind = FileKind::Temp;
        let fault = Event::FaultInjected {
            page,
            fault: FaultKind::TransientRead,
        };
        assert_eq!(
            sink.events(),
            [
                fault,
                fault,
                Event::PageRead { page, kind },
                Event::Retry {
                    n: 2,
                    backoff_ms: 3
                },
            ],
            "the Retry event follows the transfer's own events"
        );

        // Never clears: four attempts, then typed exhaustion, no charge.
        disk.set_fault_plan(FaultPlan::new(
            FaultConfig::new(2).on_page(pid, FaultKind::TransientWrite),
        ));
        assert_eq!(
            disk.write_page(pid, &Page::new()),
            Err(StorageError::RetriesExhausted { pid, attempts: 4 })
        );
        assert_eq!(disk.clear_fault_plan().unwrap().ops(), 4);
        assert_eq!((disk.stats().writes, disk.stats().retries), (0, 2 + 3));
        assert_eq!(disk.stats().retry_backoff_ms, 3 + 1 + 2 + 4);
        assert_eq!(disk.stats().faults_injected, 2 + 4);

        // Anything else passes straight through, unretried.
        disk.set_fault_plan(FaultPlan::new(
            FaultConfig::new(3).on_page(pid, FaultKind::PermanentRead),
        ));
        assert_eq!(
            disk.read_page(pid, &mut Page::new()),
            Err(StorageError::PermanentFault(pid))
        );
        assert_eq!(disk.clear_fault_plan().unwrap().ops(), 1);
        assert_eq!(disk.stats().retries, 5);
        assert_eq!(disk.stats().faults_injected, 2 + 4 + 1);
    }

    #[test]
    fn blanket_pager_works_on_trait_objects() {
        let mut store: Box<dyn PageStore> = Backend::Sim.open().unwrap();
        let s: &mut dyn PageStore = store.as_mut();
        let file = s.create_file(FileKind::Temp);
        let pid = s.alloc_page(file).unwrap();
        s.with_page_mut(pid, |pg: &mut Page| pg.put_u32(4, 9))
            .unwrap();
        let v = s.with_page(pid, |pg: &Page| pg.get_u32(4)).unwrap();
        assert_eq!(v, 9);
        assert_eq!(s.file_page_ids(file), Ok(vec![pid]));
        s.free_file(file).unwrap();
    }
}
