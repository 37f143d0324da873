//! The page-store contract, checked once for every medium.
//!
//! `DiskSim`, `FileStore` and `FrozenStore` are one `Store<M>` over three
//! media, so what used to be three copies of the same unit tests is one
//! function, [`contract`], instantiated for `Mem`, `Segment` and
//! `Frozen`. Every fault kind is checked the same way, against the
//! store's own event stream, the one record of what a plan injected. The
//! second half drives the core over a medium that fails on demand and
//! checks that a failed operation leaves the catalog exactly as it was —
//! the seed of crash-point enumeration (ROADMAP 5c).

use std::sync::Arc;
use tc_study::storage::{
    DiskSim, FaultConfig, FaultKind, FaultPlan, FileId, FileKind, FileStore, FrozenPageSet,
    FrozenStore, Medium, Mem, Page, PageId, PageStore, Pager, StorageError, StorageResult, Store,
    TempDir,
};
use tc_study::trace::{Event, Tracer, VecSink};

/// Pages of the canonical population: file 0, kind `Relation`.
const POPULATION: usize = 40;
/// The word the `i`-th page of the population carries at offset 0.
fn stamp(i: usize) -> u32 {
    0xC0DE_0000 | i as u32
}

/// Fills `store` with the canonical population and clears the counters.
fn populate<S: PageStore>(mut store: S) -> S {
    let file = store.new_file(FileKind::Relation);
    assert_eq!(file, FileId(0));
    for i in 0..POPULATION {
        let pid = store.alloc(file).expect("alloc");
        let mut page = Page::new();
        page.put_u32(0, stamp(i));
        store.write_page(pid, &page).expect("write");
    }
    store.reset_stats();
    store
}

fn temp_file_store() -> FileStore {
    FileStore::create_in(TempDir::new("tc-contract").expect("tempdir")).expect("create")
}

/// What every store promises, whatever its medium. `store` holds the
/// canonical population with zeroed counters; `read_only` says which
/// half of the mutation contract applies.
fn contract(store: &mut dyn PageStore, name: &str, read_only: bool) {
    assert_eq!(store.backend_name(), name);
    let file = FileId(0);
    let pages = store.file_pages(file).expect("pages").to_vec();
    assert_eq!(pages.len(), POPULATION, "{name}");
    assert_eq!(store.file_kind(file), Ok(FileKind::Relation), "{name}");

    // Round trip and counting: one read charged per transfer, by kind.
    let mut out = Page::new();
    for (i, &pid) in pages.iter().enumerate() {
        assert_eq!(store.page_file(pid), Ok(file), "{name}");
        store.read_page(pid, &mut out).expect("read");
        assert_eq!(out.get_u32(0), stamp(i), "{name}: page {i}");
    }
    let n = POPULATION as u64;
    assert_eq!(
        (store.stats().reads, store.stats().writes),
        (n, 0),
        "{name}"
    );
    assert_eq!(store.stats().reads_by_kind[FileKind::Relation.idx()], n);

    // Out of bounds is a typed error and charges nothing.
    let missing = PageId(10_000);
    assert_eq!(
        store.read_page(missing, &mut out),
        Err(StorageError::PageOutOfBounds(missing)),
        "{name}"
    );
    assert_eq!(
        store.page_file(missing),
        Err(StorageError::PageOutOfBounds(missing))
    );
    assert_eq!(store.stats().reads, n, "{name}: a failed read was charged");

    // Transient faults are retried inside the store: a bare transfer
    // succeeds and charges once, because failed attempts are not
    // transfers, and each cleared injection is one retry.
    let before = store.stats().clone();
    let sink = Arc::new(VecSink::unbounded());
    store.set_tracer(Tracer::new(sink.clone()));
    store.set_fault_plan(FaultPlan::new(
        FaultConfig::new(11)
            .transient_reads(0.3)
            .transient_writes(0.3)
            .max_transient_streak(2),
    ));
    for (i, &pid) in pages.iter().enumerate() {
        let charged = store.stats().total();
        assert_eq!(store.read_page(pid, &mut out), Ok(()), "{name}: page {i}");
        assert_eq!(out.get_u32(0), stamp(i), "{name}: faulted read of page {i}");
        assert_eq!(store.stats().total(), charged + 1, "{name}: read {i}");
        if !read_only {
            assert_eq!(store.write_page(pid, &out), Ok(()), "{name}: page {i}");
            assert_eq!(store.stats().total(), charged + 2, "{name}: write {i}");
        }
    }
    store.clear_fault_plan().expect("plan was armed");
    store.set_tracer(Tracer::disabled());
    let events = sink.events();
    let injected = |kind| {
        let of_kind =
            |e: &&Event| matches!(e, Event::FaultInjected { fault, .. } if *fault == kind);
        events.iter().filter(of_kind).count() as u64
    };
    let (reads, writes) = (
        injected(FaultKind::TransientRead),
        injected(FaultKind::TransientWrite),
    );
    let cleared = reads + writes;
    assert!(reads > 0, "{name}: nothing injected");
    assert!(read_only || writes > 0, "{name}");
    assert_eq!(store.stats().since(&before).retries, cleared, "{name}");
    assert_eq!(store.stats().since(&before).faults_injected, cleared);

    // A streak cap above the budget of 4 attempts outlasts it: typed
    // exhaustion after 4 attempts, and nothing charged.
    let before = store.stats().clone();
    store.set_fault_plan(FaultPlan::new(
        FaultConfig::new(12)
            .transient_reads(1.0)
            .transient_writes(1.0)
            .max_transient_streak(100),
    ));
    let exhausted = Err(StorageError::RetriesExhausted {
        pid: pages[0],
        attempts: 4,
    });
    assert_eq!(store.read_page(pages[0], &mut out), exhausted, "{name}");
    if !read_only {
        assert_eq!(store.write_page(pages[0], &out), exhausted, "{name}");
    }
    let plan = store.clear_fault_plan().expect("plan was armed");
    let calls = if read_only { 1 } else { 2 };
    assert_eq!(plan.ops(), 4 * calls, "{name}: attempts per call");
    let spent = store.stats().since(&before);
    assert_eq!(
        spent.total(),
        0,
        "{name}: an exhausted transfer was charged"
    );
    assert_eq!(spent.retries, 3 * calls, "{name}");

    let before = store.stats().clone();
    if read_only {
        // Every mutation is refused and leaves the store as it was.
        let refused = Err(StorageError::ReadOnlyStore);
        assert_eq!(store.write_page(pages[0], &Page::new()), refused);
        let dummy = store.new_file(FileKind::Temp);
        assert_eq!(store.alloc(dummy), Err(StorageError::ReadOnlyStore));
        assert_eq!(store.drop_file(file), refused);
        assert_eq!(store.file_pages(file), Ok(&pages[..]), "{name}");
        store.read_page(pages[0], &mut out).expect("read");
        assert_eq!(out.get_u32(0), stamp(0), "{name}: refused write landed");
        assert_eq!(store.stats().writes, 0, "{name}");
        return;
    }

    // Allocation and deletion are catalog operations: never charged.
    let a = store.new_file(FileKind::Temp);
    let fresh: Vec<PageId> = (0..3).map(|_| store.alloc(a).expect("alloc")).collect();
    assert_eq!(fresh[0], PageId(POPULATION as u32), "{name}: grows densely");
    assert_eq!(store.file_pages(a), Ok(&fresh[..]));
    let mut dirty = Page::new();
    dirty.put_u32(0, 7);
    store.write_page(fresh[2], &dirty).expect("write");
    store.drop_file(a).expect("drop");
    assert_eq!(store.file_pages(a), Ok(&[][..]), "{name}");
    assert_eq!(store.stats().since(&before).total(), 1, "{name}: one write");
    assert_eq!(store.stats().writes_by_kind[FileKind::Temp.idx()], 1);

    // LIFO reuse: the most recently allocated page comes back first,
    // zeroed, and the store grows only after the free list drains.
    let b = store.new_file(FileKind::Output);
    for expect in [fresh[2], fresh[1], fresh[0], PageId(POPULATION as u32 + 3)] {
        assert_eq!(store.alloc(b), Ok(expect), "{name}");
    }
    assert_eq!(store.page_count(), POPULATION + 4, "{name}");
    assert_eq!(store.page_file(fresh[2]), Ok(b), "{name}");
    out.put_u32(0, 1);
    store.read_page(fresh[2], &mut out).expect("read");
    assert!(
        out.bytes().iter().all(|&x| x == 0),
        "{name}: reused page not zeroed"
    );
    store.sync().expect("sync");
}

#[test]
fn mem_honours_the_contract() {
    contract(&mut populate(DiskSim::new()), "sim", false);
}

#[test]
fn segment_honours_the_contract() {
    contract(&mut populate(temp_file_store()), "file", false);
}

#[test]
fn frozen_honours_the_contract() {
    // Captured from either writable medium, the view behaves the same.
    let mut sim = populate(DiskSim::new());
    let mut file = populate(temp_file_store());
    let sources: [&mut dyn PageStore; 2] = [&mut sim, &mut file];
    for source in sources {
        // An uncaptured file between captured ones leaves holes: its
        // pages are out of bounds and it looks like a dropped file.
        let other = source.new_file(FileKind::Temp);
        let hole = source.alloc(other).expect("alloc");
        let empty = source.new_file(FileKind::Output);
        let set = FrozenPageSet::capture(source, &[FileId(0), empty]).expect("capture");
        assert_eq!(set.page_count(), POPULATION);
        let mut store = FrozenStore::new(Arc::new(set));
        assert_eq!(
            store.read_page(hole, &mut Page::new()),
            Err(StorageError::PageOutOfBounds(hole)),
            "uncaptured pages are out of bounds"
        );
        assert_eq!(store.file_pages(other), Ok(&[][..]));
        assert_eq!(store.file_kind(other), Ok(FileKind::Temp));
        contract(&mut store, "frozen", true);
    }
}

#[test]
fn a_foreign_file_id_is_a_typed_error_on_every_medium() {
    let mut sim = populate(DiskSim::new());
    let mut file = populate(temp_file_store());
    let mut frozen = FrozenStore::new(Arc::new(
        FrozenPageSet::capture(&mut sim, &[FileId(0)]).expect("capture"),
    ));
    let stores: [(&mut dyn PageStore, bool); 3] =
        [(&mut sim, false), (&mut file, false), (&mut frozen, true)];
    for (store, read_only) in stores {
        let name = store.backend_name();
        let before = store.catalog().clone();
        for id in [1, 9_999, u32::MAX] {
            let (foreign, unknown) = (FileId(id), StorageError::UnknownFile(id));
            assert_eq!(store.file_pages(foreign).unwrap_err(), unknown, "{name}");
            assert_eq!(store.file_kind(foreign).unwrap_err(), unknown, "{name}");
            assert_eq!(store.file_page_ids(foreign).unwrap_err(), unknown);
            // A read-only medium refuses a mutation before it looks.
            let refused = if read_only {
                StorageError::ReadOnlyStore
            } else {
                unknown.clone()
            };
            assert_eq!(store.alloc(foreign).unwrap_err(), refused, "{name}");
            assert_eq!(store.drop_file(foreign).unwrap_err(), refused, "{name}");
            let captured = FrozenPageSet::capture(store, &[FileId(0), foreign]);
            assert_eq!(captured.err(), Some(unknown), "{name}: capture");
        }
        assert_eq!(
            store.catalog(),
            &before,
            "{name}: a refusal moved the catalog"
        );
    }
}

/// Every fault kind reaches the store's event stream, on every medium
/// (the write kinds on the writable ones): each injection is one
/// `FaultInjected` naming its kind and page, in attempt order; a torn
/// write is followed by its `PageWrite`, and the next read of the page
/// is one `CorruptionDetected` and a `ChecksumMismatch`; a dead page
/// fails every later read with one `FaultInjected` and no `Retry`.
#[test]
fn every_fault_kind_reaches_the_stream_on_every_medium() {
    let mut sim = populate(DiskSim::new());
    let mut frozen = FrozenStore::new(Arc::new(
        FrozenPageSet::capture(&mut sim, &[FileId(0)]).expect("capture"),
    ));
    let mut file = populate(temp_file_store());
    let stores: [(&mut dyn PageStore, bool); 3] =
        [(&mut sim, false), (&mut file, false), (&mut frozen, true)];
    for (store, read_only) in stores {
        let name = store.backend_name();
        let p = store.file_pages(FileId(0)).expect("pages")[..4].to_vec();
        let sink = Arc::new(VecSink::unbounded());
        store.set_tracer(Tracer::new(sink.clone()));
        // Attempts 0-1 read p[0]; on a writable medium 2-3 write p[1], 4
        // writes p[2] and 5 reads it back. A write kind never strikes a
        // read, so on a read-only medium attempt 2 is p[3]'s first read.
        store.set_fault_plan(FaultPlan::new(
            FaultConfig::new(0)
                .at_op(0, FaultKind::TransientRead)
                .at_op(2, FaultKind::TransientWrite)
                .at_op(4, FaultKind::Corrupt)
                .on_page(p[3], FaultKind::PermanentRead),
        ));
        let before = store.stats().clone();
        let injected = |pid: PageId, fault| Event::FaultInjected { page: pid.0, fault };
        let read = |pid: PageId| Event::PageRead {
            page: pid.0,
            kind: FileKind::Relation,
        };
        let write = |pid: PageId| Event::PageWrite {
            page: pid.0,
            kind: FileKind::Relation,
        };
        let one_retry = Event::Retry {
            n: 1,
            backoff_ms: 1,
        };
        let mut out = Page::new();
        let mut expected = Vec::new();

        assert_eq!(store.read_page(p[0], &mut out), Ok(()), "{name}");
        expected.extend([
            injected(p[0], FaultKind::TransientRead),
            read(p[0]),
            one_retry,
        ]);
        if !read_only {
            assert_eq!(store.write_page(p[1], &out), Ok(()), "{name}");
            expected.extend([
                injected(p[1], FaultKind::TransientWrite),
                write(p[1]),
                one_retry,
            ]);
            assert_eq!(store.write_page(p[2], &out), Ok(()), "{name}: torn, yet Ok");
            expected.extend([injected(p[2], FaultKind::Corrupt), write(p[2])]);
            let caught = store.read_page(p[2], &mut out);
            assert!(
                matches!(caught, Err(StorageError::ChecksumMismatch { pid, .. }) if pid == p[2]),
                "{name}: {caught:?}"
            );
            expected.push(Event::CorruptionDetected { page: p[2].0 });
        }
        for _ in 0..2 {
            let dead = Err(StorageError::PermanentFault(p[3]));
            assert_eq!(store.read_page(p[3], &mut out), dead, "{name}");
            expected.push(injected(p[3], FaultKind::PermanentRead));
        }
        store.clear_fault_plan().expect("plan was armed");
        store.set_tracer(Tracer::disabled());

        assert_eq!(sink.events(), expected, "{name}");
        let faults = expected
            .iter()
            .filter(|e| matches!(e, Event::FaultInjected { .. }))
            .count() as u64;
        assert_eq!(
            store.stats().since(&before).faults_injected,
            faults,
            "{name}"
        );
    }
}

/// Test double: a `Mem` whose `zero`/`write` calls start failing once
/// `budget` of them have succeeded.
struct Failing {
    inner: Mem,
    budget: usize,
}

impl Failing {
    fn spend(&mut self) -> StorageResult<()> {
        if self.budget == 0 {
            return Err(StorageError::Backend {
                op: "injected",
                detail: "medium failure".into(),
            });
        }
        self.budget -= 1;
        Ok(())
    }
}

impl Medium for Failing {
    fn read(&mut self, pid: PageId, out: &mut Page, verify: bool) -> StorageResult<()> {
        self.inner.read(pid, out, verify)
    }

    fn write(&mut self, pid: PageId, data: &Page, tear_at: Option<usize>) -> StorageResult<()> {
        self.spend()?;
        self.inner.write(pid, data, tear_at)
    }

    fn zero(&mut self, pid: PageId) -> StorageResult<()> {
        self.spend()?;
        self.inner.zero(pid)
    }

    fn name(&self) -> &'static str {
        "failing"
    }
}

/// One operation of the failure script.
type Step<'a> = &'a dyn Fn(&mut Store<Failing>) -> StorageResult<()>;

/// Everything the catalog knows, in comparable form.
fn snapshot(store: &Store<Failing>, files: &[FileId]) -> (Vec<Vec<PageId>>, Vec<PageId>, usize) {
    (
        files
            .iter()
            .map(|&f| store.file_pages(f).expect("pages").to_vec())
            .collect(),
        store.catalog().free_pages().to_vec(),
        store.page_count(),
    )
}

#[test]
fn failed_medium_operations_leave_the_catalog_untouched() {
    // The script allocates, writes, drops and reallocates; cutting the
    // medium off after every possible number of successful operations
    // visits a failure in each of them, on the growing and on the
    // reusing allocation path.
    let mut failures = 0;
    for budget in 0..12 {
        let mut store = Store::over(Failing {
            inner: Mem::default(),
            budget,
        });
        let a = store.new_file(FileKind::Temp);
        let b = store.new_file(FileKind::Output);
        let files = [a, b];
        let script: [Step; 9] = [
            &|s| s.alloc(a).map(drop),
            &|s| s.alloc(a).map(drop),
            &|s| s.write_page(PageId(1), &Page::new()),
            &|s| s.alloc(b).map(drop),
            &|s| s.drop_file(a),
            &|s| s.alloc(b).map(drop),
            &|s| s.write_page(PageId(1), &Page::new()),
            &|s| s.alloc(b).map(drop),
            &|s| s.alloc(b).map(drop),
        ];
        for (step, op) in script.iter().enumerate() {
            let before = snapshot(&store, &files);
            let writes = store.stats().writes;
            if let Err(e) = op(&mut store) {
                // Once an allocation failed, a later write may find its
                // page missing; that too must change nothing.
                match e {
                    StorageError::Backend { op: "injected", .. } => failures += 1,
                    StorageError::PageOutOfBounds(_) => {}
                    other => panic!("budget {budget}, step {step}: {other}"),
                }
                assert_eq!(
                    snapshot(&store, &files),
                    before,
                    "budget {budget}, step {step}: a failed operation moved the catalog"
                );
                assert_eq!(store.stats().writes, writes, "failed write charged");
            }
            // No page is ever lost: each slot is in one file or free.
            let (owned, free, slots) = snapshot(&store, &files);
            let held: usize = owned.iter().map(Vec::len).sum();
            assert_eq!(held + free.len(), slots, "budget {budget}, step {step}");
        }
    }
    assert!(
        failures > 20,
        "the double injected only {failures} failures"
    );
}
