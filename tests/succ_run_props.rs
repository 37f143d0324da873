//! Property test: a run leaves the list that one-at-a-time appends leave.
//!
//! The engines write a union's new entries with one `SuccStore::extend`
//! / `extend_flat` call instead of an `append` per entry. A run must be
//! invisible to everything the study counts except the number of buffer
//! requests: it makes the requests of the per-entry loop, in the same
//! order, with consecutive requests to one page merged. One random
//! stream of interleaved runs (length 0 to 70, across up to 50 lists,
//! a few of them hot enough to outgrow pages) drives a store through
//! runs and a twin through one-element `append` / `append_flat`, each
//! behind its own buffer pool, for all three list policies, every page
//! policy and pools of 2 to 40 frames. Afterwards the list contents
//! (also against an in-memory model), every page image, `SuccStats` and
//! the merged page-request streams are equal. Requests may only fall. A
//! repeated request to the page just touched changes no victim except
//! under LFU, which counts requests, so misses, evictions, dirty
//! write-backs and `DiskStats` are equal under every other policy.
//!
//! The second property fails the k-th pager request of a multi-block
//! run, for every k the run makes: the error comes back, `len` counts
//! exactly the entries readable from the list, `verify_integrity`
//! passes, and writing the rest completes the list. Replay a failure
//! with the printed `TC_DET_SEED=...`.

use std::sync::Arc;
use tc_study::buffer::{BufferPool, PagePolicy};
use tc_study::det::check::{self, Checker};
use tc_study::det::{require, require_eq, Rng};
use tc_study::storage::{
    DiskSim, FileId, FileKind, Page, PageId, Pager, StorageError, StorageResult, SuccEntry,
};
use tc_study::succ::{ListCursor, ListPolicy, SuccStore};
use tc_study::trace::{Event, Tracer, VecSink};

/// One write: `entries` as given, or `values` as a flat run.
#[derive(Clone, Debug)]
enum Run {
    Entries { node: u32, entries: Vec<SuccEntry> },
    Flat { node: u32, values: Vec<u32> },
}

impl Run {
    fn node(&self) -> u32 {
        match self {
            Run::Entries { node, .. } | Run::Flat { node, .. } => *node,
        }
    }

    /// The run through `extend` / `extend_flat`.
    fn extend<P: Pager>(&self, store: &mut SuccStore, pager: &mut P) -> StorageResult<()> {
        match self {
            Run::Entries { node, entries } => store.extend(pager, *node, entries),
            Run::Flat { node, values } => store.extend_flat(pager, *node, values),
        }
    }

    /// The same entries through one-element `append` / `append_flat`.
    fn append<P: Pager>(&self, store: &mut SuccStore, pager: &mut P) -> StorageResult<()> {
        match self {
            Run::Entries { node, entries } => entries
                .iter()
                .try_for_each(|&e| store.append(pager, *node, e)),
            Run::Flat { node, values } => values
                .iter()
                .try_for_each(|&v| store.append_flat(pager, *node, v)),
        }
    }

    /// What the run leaves in memory.
    fn apply(&self, model: &mut [Vec<SuccEntry>]) {
        match self {
            Run::Entries { node, entries } => model[*node as usize].extend(entries),
            Run::Flat { node, values } => {
                let list = &mut model[*node as usize];
                if let (Some(last), false) = (list.last_mut(), values.is_empty()) {
                    last.tagged = false;
                }
                list.extend(values.iter().map(|&v| SuccEntry::plain(v)));
                if let (Some(last), false) = (list.last_mut(), values.is_empty()) {
                    last.tagged = true;
                }
            }
        }
    }
}

/// A run on `node` of `len` entries (0 to 70 when `None`).
fn gen_run(rng: &mut Rng, node: u32, len: Option<usize>) -> Run {
    let len = len.unwrap_or_else(|| rng.random_range(0..71usize));
    if rng.random_range(0..3u32) == 0 {
        let entries = (0..len)
            .map(|_| SuccEntry {
                node: rng.random_range(0..100_000u32),
                tagged: rng.random_range(0..4u32) == 0,
            })
            .collect();
        Run::Entries { node, entries }
    } else {
        let values = (0..len).map(|_| rng.random_range(0..100_000u32)).collect();
        Run::Flat { node, values }
    }
}

/// A stream of runs over `nodes` lists; half the runs go to three hot
/// lists, which outgrow their pages and force the list policy's splits.
fn gen_runs(rng: &mut Rng, nodes: u32, count: std::ops::Range<usize>) -> Vec<Run> {
    check::vec_of(rng, count, |r| {
        let node = if r.random_range(0..2u32) == 0 {
            r.random_range(0..nodes.min(3))
        } else {
            r.random_range(0..nodes)
        };
        gen_run(r, node, None)
    })
}

#[derive(Clone, Debug)]
struct Case {
    list_policy: ListPolicy,
    page_policy: PagePolicy,
    frames: usize,
    nodes: u32,
    runs: Vec<Run>,
}

fn generate(rng: &mut Rng) -> Case {
    let nodes = rng.random_range(1..51u32);
    Case {
        list_policy: ListPolicy::ALL[rng.random_range(0..ListPolicy::ALL.len())],
        page_policy: PagePolicy::ALL[rng.random_range(0..PagePolicy::ALL.len())],
        frames: rng.random_range(2..41usize),
        nodes,
        runs: gen_runs(rng, nodes, 1..120),
    }
}

fn shrink(case: &Case) -> Vec<Case> {
    let mut out: Vec<Case> = check::shrink_vec(&case.runs)
        .into_iter()
        .map(|runs| Case {
            runs,
            ..case.clone()
        })
        .collect();
    if case.frames > 2 {
        out.push(Case {
            frames: (case.frames / 2).max(2),
            ..case.clone()
        });
    }
    out
}

/// A pool over a fresh simulated disk, its events collected.
fn pool(case: &Case) -> (BufferPool, Arc<VecSink>) {
    let mut pool = BufferPool::new(DiskSim::new(), case.frames, case.page_policy);
    let events = Arc::new(VecSink::unbounded());
    pool.set_tracer(Tracer::new(events.clone()));
    (pool, events)
}

/// The pages requested, in order, with consecutive repeats merged.
fn merged_requests(events: &VecSink) -> Vec<u32> {
    let mut pages: Vec<u32> = events
        .events()
        .iter()
        .filter_map(|ev| match ev {
            Event::BufHit { page, .. } | Event::BufMiss { page, .. } => Some(*page),
            Event::PageAlloc { page, .. } => Some(*page),
            _ => None,
        })
        .collect();
    pages.dedup();
    pages
}

/// Every page of `file`, read through `pool`.
fn images(pool: &mut BufferPool, file: FileId) -> Result<Vec<Vec<u8>>, String> {
    pool.file_page_ids(file)
        .and_then(|pages| {
            pages
                .into_iter()
                .map(|p| pool.with_page(p, |pg: &Page| pg.bytes().to_vec()))
                .collect::<StorageResult<_>>()
        })
        .map_err(|e| e.to_string())
}

fn runs_match_appends(case: &Case) -> Result<(), String> {
    let err = |e: StorageError| e.to_string();
    let n = case.nodes as usize;
    let (mut run_pool, run_events) = pool(case);
    let (mut twin_pool, twin_events) = pool(case);
    let mut runs = SuccStore::new(&mut run_pool, n, case.list_policy);
    let mut twin = SuccStore::new(&mut twin_pool, n, case.list_policy);
    let mut model: Vec<Vec<SuccEntry>> = vec![Vec::new(); n];
    for (step, run) in case.runs.iter().enumerate() {
        run.extend(&mut runs, &mut run_pool).map_err(err)?;
        run.append(&mut twin, &mut twin_pool).map_err(err)?;
        run.apply(&mut model);
        require_eq!(
            runs.stats(),
            twin.stats(),
            "after run {step} on {}",
            run.node()
        );
    }

    require_eq!(merged_requests(&run_events), merged_requests(&twin_events));
    let (ran, twinned) = (run_pool.stats().clone(), twin_pool.stats().clone());
    require!(
        ran.requests <= twinned.requests,
        "a run made more requests: {} > {}",
        ran.requests,
        twinned.requests
    );
    if case.page_policy != PagePolicy::Lfu {
        require_eq!(
            (ran.misses, ran.evictions, ran.dirty_writebacks),
            (twinned.misses, twinned.evictions, twinned.dirty_writebacks)
        );
        require_eq!(run_pool.store().stats(), twin_pool.store().stats());
    }

    // Reads last: they go through the pools and move their counts.
    for node in 0..case.nodes {
        let expect = &model[node as usize];
        let got = ListCursor::new(&runs, node).collect_entries(&mut run_pool);
        require_eq!(&got.map_err(err)?, expect, "runs, list {node}");
        let got = ListCursor::new(&twin, node).collect_entries(&mut twin_pool);
        require_eq!(&got.map_err(err)?, expect, "appends, list {node}");
        require_eq!(runs.pages_of(node), twin.pages_of(node), "list {node}");
    }
    require_eq!(
        images(&mut run_pool, runs.file_id())?,
        images(&mut twin_pool, twin.file_id())?,
        "page images"
    );
    runs.verify_integrity(&mut run_pool).map_err(err)
}

#[test]
fn a_run_leaves_what_one_element_appends_leave() {
    Checker::new("succ_run_differential")
        .cases(48)
        .run(generate, shrink, runs_match_appends);
}

/// A pager that fails its `fail_at`-th request (counting from 1) and
/// passes every other one to the disk.
struct Failing<'a> {
    disk: &'a mut DiskSim,
    seen: usize,
    fail_at: usize,
}

impl Failing<'_> {
    fn next(&mut self, pid: PageId, write: bool) -> StorageResult<()> {
        self.seen += 1;
        if self.seen == self.fail_at {
            return Err(StorageError::TransientIo { pid, write });
        }
        Ok(())
    }
}

impl Pager for Failing<'_> {
    fn with_page<R>(&mut self, pid: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        self.next(pid, false)?;
        self.disk.with_page(pid, f)
    }

    fn with_page_mut<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> StorageResult<R> {
        self.next(pid, true)?;
        self.disk.with_page_mut(pid, f)
    }

    fn alloc_page(&mut self, file: FileId) -> StorageResult<PageId> {
        self.next(PageId(u32::MAX), true)?;
        self.disk.alloc_page(file)
    }

    fn create_file(&mut self, kind: FileKind) -> FileId {
        self.disk.create_file(kind)
    }

    fn free_file(&mut self, file: FileId) -> StorageResult<()> {
        self.disk.free_file(file)
    }

    fn file_page_ids(&self, file: FileId) -> StorageResult<Vec<PageId>> {
        self.disk.file_page_ids(file)
    }
}

/// Lists filled by `setup`, then one multi-block run `last`.
#[derive(Clone, Debug)]
struct FailCase {
    list_policy: ListPolicy,
    nodes: u32,
    setup: Vec<Run>,
    last: Run,
}

fn generate_fail(rng: &mut Rng) -> FailCase {
    let nodes = rng.random_range(1..6u32);
    let setup = gen_runs(rng, nodes, 0..40);
    let node = rng.random_range(0..nodes);
    let len = rng.random_range(16..71usize);
    FailCase {
        list_policy: ListPolicy::ALL[rng.random_range(0..ListPolicy::ALL.len())],
        nodes,
        setup,
        last: gen_run(rng, node, Some(len)),
    }
}

fn shrink_fail(case: &FailCase) -> Vec<FailCase> {
    check::shrink_vec(&case.setup)
        .into_iter()
        .map(|setup| FailCase {
            setup,
            ..case.clone()
        })
        .collect()
}

/// The last run's remainder after `written` of its entries.
fn rest_of(run: &Run, written: usize) -> Run {
    match run {
        Run::Entries { node, entries } => Run::Entries {
            node: *node,
            entries: entries[written..].to_vec(),
        },
        Run::Flat { node, values } => Run::Flat {
            node: *node,
            values: values[written..].to_vec(),
        },
    }
}

fn failed_runs_leave_whole_blocks(case: &FailCase) -> Result<(), String> {
    let err = |e: StorageError| e.to_string();
    let node = case.last.node();
    let mut model: Vec<Vec<SuccEntry>> = vec![Vec::new(); case.nodes as usize];
    for run in &case.setup {
        run.apply(&mut model);
    }
    let before = model[node as usize].len();
    case.last.apply(&mut model);
    let expect = &model[node as usize];
    for fail_at in 1.. {
        let mut disk = DiskSim::new();
        let mut store = SuccStore::new(&mut disk, case.nodes as usize, case.list_policy);
        for run in &case.setup {
            run.extend(&mut store, &mut disk).map_err(err)?;
        }
        let mut failing = Failing {
            disk: &mut disk,
            seen: 0,
            fail_at,
        };
        let outcome = case.last.extend(&mut store, &mut failing);
        if failing.seen < fail_at {
            require!(outcome.is_ok(), "no request failed, yet {outcome:?}");
            require!(
                fail_at > 3,
                "a multi-block run made {} requests",
                fail_at - 1
            );
            return Ok(());
        }
        require!(
            outcome.is_err(),
            "request {fail_at} failed, yet the run succeeded"
        );
        let got = ListCursor::new(&store, node).collect_entries(&mut disk);
        let got = got.map_err(err)?;
        require_eq!(got.len(), store.len(node), "request {fail_at}");
        let nodes = |l: &[SuccEntry]| l.iter().map(|e| e.node).collect::<Vec<_>>();
        require_eq!(
            nodes(&got),
            nodes(&expect[..got.len()]),
            "request {fail_at}"
        );
        require!(got.len() >= before, "request {fail_at} lost entries");
        store.verify_integrity(&mut disk).map_err(err)?;
        rest_of(&case.last, got.len() - before)
            .extend(&mut store, &mut disk)
            .map_err(err)?;
        let got = ListCursor::new(&store, node).collect_entries(&mut disk);
        require_eq!(
            &got.map_err(err)?,
            expect,
            "completed after request {fail_at}"
        );
        store.verify_integrity(&mut disk).map_err(err)?;
    }
    Ok(())
}

#[test]
fn a_failed_request_leaves_a_readable_prefix() {
    Checker::new("succ_run_failure").cases(24).run(
        generate_fail,
        shrink_fail,
        failed_runs_leave_whole_blocks,
    );
}
