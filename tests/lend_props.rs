//! Property test: a buffer pool that borrows a frozen page set's images
//! is indistinguishable, on every counted number, from one that copies
//! them.
//!
//! Over a store whose medium lends its pages (`FrozenStore`) the pool
//! owns no frames: a miss admits the read without moving bytes and the
//! reader borrows the shared image. The oracle is the same captured
//! page set behind a medium that lends nothing, so the pool above it
//! copies 2 KB per miss into a frame of its own — what every pool did
//! before lending existed. For random page sets × every replacement
//! policy × capacities 1–64 × optional fault plans (transient reads
//! that either always clear within the store's 4 attempts or, with a
//! streak cap of 4 or more, often outlast them, so requests fail), one
//! request sequence drives both, and after every request the outcome
//! (the bytes the closure saw, or the error), the pool invariants, and
//! at the end `BufferStats`, `DiskStats` and the event digest must be
//! equal. Replay a failure with the printed `TC_DET_SEED=...`.

use std::sync::Arc;
use tc_study::buffer::{BufferPool, PagePolicy};
use tc_study::det::check::{self, Checker};
use tc_study::det::{require, require_eq, Rng};
use tc_study::storage::{
    DiskSim, FaultConfig, FaultPlan, FileKind, FrozenPageSet, FrozenStore, Medium, Page, PageId,
    PageStore, Pager, StorageError, StorageResult, Store,
};
use tc_study::trace::{DigestSink, Tracer};

/// The captured set behind a medium that lends nothing.
struct Copied(Arc<FrozenPageSet>);

impl Medium for Copied {
    fn read(&mut self, pid: PageId, out: &mut Page, _verify: bool) -> StorageResult<()> {
        let image = self.0.page(pid).ok_or(StorageError::PageOutOfBounds(pid))?;
        out.bytes_mut().copy_from_slice(image.bytes());
        Ok(())
    }

    fn write(&mut self, _: PageId, _: &Page, _: Option<usize>) -> StorageResult<()> {
        Err(StorageError::ReadOnlyStore)
    }

    fn zero(&mut self, _: PageId) -> StorageResult<()> {
        Err(StorageError::ReadOnlyStore)
    }

    fn name(&self) -> &'static str {
        "copied"
    }

    fn writable(&self) -> StorageResult<()> {
        Err(StorageError::ReadOnlyStore)
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// `with_page` on page id `.0` (ids past the captured file miss the
    /// catalog and must fail identically).
    Read(u32),
    Pin(u32),
    /// Releases the oldest pin still held, if any.
    Unpin,
}

/// Pages captured, pool capacity, policy index, optional `(fault seed,
/// transient streak cap)`, and the request sequence.
type Case = (usize, usize, usize, Option<(u64, u32)>, Vec<Op>);

fn generate(rng: &mut Rng) -> Case {
    let pages = rng.random_range(1..48usize);
    let ops = check::vec_of(rng, 1..200, |r| {
        let pid = r.random_range(0..pages as u32 + 3);
        match r.random_range(0..10u32) {
            0 => Op::Pin(pid),
            1 => Op::Unpin,
            _ => Op::Read(pid),
        }
    });
    let fault = rng
        .random_range(0..2u32)
        .eq(&0)
        .then(|| (rng.random_range(0..1_000_000u64), rng.random_range(2..7u32)));
    (
        pages,
        rng.random_range(1..65usize),
        rng.random_range(0..PagePolicy::ALL.len()),
        fault,
        ops,
    )
}

fn shrink(case: &Case) -> Vec<Case> {
    let &(pages, capacity, policy, fault, ref ops) = case;
    let mut out: Vec<Case> = check::shrink_vec(ops)
        .into_iter()
        .map(|ops| (pages, capacity, policy, fault, ops))
        .collect();
    if fault.is_some() {
        out.push((pages, capacity, policy, None, ops.clone()));
    }
    if capacity > 1 {
        out.push((pages, capacity / 2, policy, fault, ops.clone()));
    }
    out
}

/// One file of `pages` distinct images, captured; the uncaptured second
/// file keeps the set sparse, as a snapshot's is.
fn capture(pages: usize) -> Arc<FrozenPageSet> {
    let mut disk = DiskSim::new();
    let kept = disk.new_file(FileKind::Relation);
    let skipped = disk.new_file(FileKind::Temp);
    for i in 0..pages {
        let pid = disk.alloc(kept).unwrap();
        let mut page = Page::new();
        for off in (0..2048).step_by(4) {
            page.put_u32(off, (i * 2048 + off) as u32 ^ 0x5EED);
        }
        disk.write_page(pid, &page).unwrap();
        if i % 3 == 0 {
            disk.alloc(skipped).unwrap();
        }
    }
    Arc::new(FrozenPageSet::capture(&mut disk, &[kept]).unwrap())
}

struct Side {
    pool: BufferPool,
    events: Arc<DigestSink>,
}

fn side(mut store: impl PageStore + 'static, case: &Case) -> Side {
    let &(_, capacity, policy, fault, _) = case;
    if let Some((seed, streak)) = fault {
        // Caps 2 and 3 always clear within the store's 4 attempts, so
        // every request succeeds after retries. A cap of 4 or more can
        // outlast them: there reads fail often enough (0.7⁴ ≈ 24 % of
        // misses) that the exhausted-request path is well exercised.
        let p = if streak >= 4 { 0.7 } else { 0.3 };
        let plan = FaultConfig::new(seed)
            .transient_reads(p)
            .max_transient_streak(streak);
        store.set_fault_plan(FaultPlan::new(plan));
    }
    let mut pool = BufferPool::new(store, capacity, PagePolicy::ALL[policy]);
    let events = Arc::new(DigestSink::new());
    pool.set_tracer(Tracer::new(events.clone()));
    Side { pool, events }
}

fn apply(pool: &mut BufferPool, op: Op, pinned: &mut Vec<u32>) -> StorageResult<Vec<u8>> {
    match op {
        Op::Read(pid) => pool.with_page(PageId(pid), |p: &Page| p.bytes().to_vec()),
        Op::Pin(pid) => pool.pin(PageId(pid)).map(|()| {
            pinned.push(pid);
            Vec::new()
        }),
        Op::Unpin => {
            if !pinned.is_empty() {
                pool.unpin(PageId(pinned.remove(0)));
            }
            Ok(Vec::new())
        }
    }
}

#[test]
fn lent_pages_are_indistinguishable_from_owned_copies() {
    Checker::new("lent_equals_owned")
        .cases(64)
        .run(generate, shrink, |case| {
            let set = capture(case.0);
            let lending = FrozenStore::new(Arc::clone(&set));
            require!(lending.lent().is_some(), "a frozen store must lend");
            let catalog = Arc::new(lending.catalog().clone());
            let owning = Store::with_catalog(Copied(set), catalog);
            require!(owning.lent().is_none(), "the oracle must copy");
            let (mut lent, mut owned) = (side(lending, case), side(owning, case));
            let (mut lent_pins, mut owned_pins) = (Vec::new(), Vec::new());
            for (i, &op) in case.4.iter().enumerate() {
                let a = apply(&mut owned.pool, op, &mut owned_pins);
                let b = apply(&mut lent.pool, op, &mut lent_pins);
                require_eq!(a, b, "request {i} ({op:?})");
                for pool in [&owned.pool, &lent.pool] {
                    if let Err(e) = pool.check_invariants() {
                        return Err(format!("after request {i} ({op:?}): {e}"));
                    }
                }
                require_eq!(owned.pool.resident(), lent.pool.resident());
            }
            require_eq!(owned.pool.stats(), lent.pool.stats());
            require_eq!(owned.pool.store().stats(), lent.pool.store().stats());
            require_eq!(owned.events.digest(), lent.events.digest());
            Ok(())
        });
}

#[test]
fn a_lending_pool_refuses_mutation_before_counting_it() {
    let set = capture(4);
    let mut pool = BufferPool::new(FrozenStore::new(set), 2, PagePolicy::Lru);
    let before = pool.stats().clone();
    assert_eq!(
        pool.with_page_mut(PageId(0), |p: &mut Page| p.put_u32(0, 1)),
        Err(StorageError::ReadOnlyStore)
    );
    let file = pool.create_file(FileKind::Temp);
    assert_eq!(pool.alloc_page(file), Err(StorageError::ReadOnlyStore));
    assert_eq!(pool.stats(), &before);
    assert_eq!(pool.store().stats().total(), 0);
    pool.check_invariants().unwrap();
}
