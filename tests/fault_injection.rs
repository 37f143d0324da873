//! Fault-injection suite: differential runs under transient faults, and
//! property-tested buffer-pool invariants under random fault plans.
//!
//! The contract under test (see DESIGN.md, "Fault model"): transient
//! faults that clear on retry must be *invisible* in every logical and
//! physical metric except the retry counters, and no storage error may
//! leave the buffer pool structurally inconsistent (dropped dirty page,
//! leaked frame, unbalanced pin).

use std::sync::{Arc, Mutex};
use tc_bench::corpus::canonical;
use tc_study::buffer::{BufferPool, PagePolicy};
use tc_study::core::prelude::*;
use tc_study::det::check::{self, Checker};
use tc_study::det::Rng;
use tc_study::graph::DagGenerator;
use tc_study::storage::{
    DiskSim, FaultConfig, FaultKind, FaultPlan, FileKind, Page, PageId, Pager, StorageError,
};
use tc_study::trace::{Event, TraceSink, Tracer};

fn workload() -> tc_study::graph::Graph {
    DagGenerator::new(300, 4.0, 80).seed(11).generate()
}

/// A run's faults, read off its event stream: each `FaultInjected` /
/// `CorruptionDetected` with its position in the stream.
#[derive(Default)]
struct Faults(Mutex<(u64, Vec<(u64, Event)>)>);

impl Faults {
    /// A config traced into a fresh log, and the log.
    fn arm(cfg: SystemConfig) -> (SystemConfig, Arc<Faults>) {
        let log = Arc::new(Faults::default());
        (cfg.traced(Tracer::new(log.clone())), log)
    }

    fn take(&self) -> Vec<(u64, Event)> {
        std::mem::take(&mut self.0.lock().expect("no emitter panicked").1)
    }
}

impl TraceSink for Faults {
    fn emit(&self, ev: Event) {
        let mut log = self.0.lock().expect("no emitter panicked");
        let at = log.0;
        log.0 += 1;
        if matches!(
            ev,
            Event::FaultInjected { .. } | Event::CorruptionDetected { .. }
        ) {
            log.1.push((at, ev));
        }
    }
}

/// Everything a run reports that must not change under retried faults.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    answer: Option<Vec<(u32, u32)>>,
    answer_tuples: u64,
    total_io: u64,
    restructure_io: (u64, u64),
    compute_io: (u64, u64),
    io_by_kind: ([u64; 6], [u64; 6]),
    tuples_generated: u64,
    duplicates: u64,
    unions: u64,
    arcs_processed: u64,
    arcs_marked: u64,
    tuple_reads: u64,
    tuple_writes: u64,
    list_fetches: u64,
    buffer_requests: u64,
    buffer_hits: u64,
    buffer_misses: u64,
}

fn fingerprint(res: &RunResult) -> Fingerprint {
    let m = &res.metrics;
    Fingerprint {
        answer: res.answer.clone(),
        answer_tuples: m.answer_tuples,
        total_io: m.total_io(),
        restructure_io: (m.restructure_io.reads, m.restructure_io.writes),
        compute_io: (m.compute_io.reads, m.compute_io.writes),
        io_by_kind: (m.disk.reads_by_kind, m.disk.writes_by_kind),
        tuples_generated: m.tuples_generated,
        duplicates: m.duplicates,
        unions: m.unions,
        arcs_processed: m.arcs_processed,
        arcs_marked: m.arcs_marked,
        tuple_reads: m.tuple_reads,
        tuple_writes: m.tuple_writes,
        list_fetches: m.list_fetches,
        buffer_requests: m.buffer.requests,
        buffer_hits: m.buffer.hits,
        buffer_misses: m.buffer.misses,
    }
}

/// Satellite (a): for every algorithm, a run under a transient-only
/// fault plan (faults that always clear on retry) is byte-identical to
/// the fault-free run in answers and in every logical/physical metric;
/// only the retry counters differ.
#[test]
fn transient_faults_are_invisible_except_retries() {
    let g = workload();
    let q = Query::partial(vec![3, 50, 120]);
    let mut total_retries = 0u64;
    let mut total_injected = 0u64;
    for algo in Algorithm::ALL {
        // Fresh databases so both runs start from identical disk state.
        let run = |fault: Option<FaultConfig>| {
            let mut db = Database::build(&g, true).unwrap();
            let (mut cfg, faults) = Faults::arm(SystemConfig::default().collecting());
            cfg.fault = fault;
            (db.run(&q, algo, &cfg).unwrap(), faults.take())
        };
        let (clean, clean_faults) = run(None);
        let (faulted, faults) = run(Some(
            FaultConfig::new(0xFA17 + algo as u64)
                .transient_reads(0.05)
                .transient_writes(0.05),
        ));
        assert_eq!(
            fingerprint(&clean),
            fingerprint(&faulted),
            "{algo}: transient faults changed an observable metric"
        );
        assert_eq!(clean.metrics.disk.retries, 0, "{algo}");
        assert_eq!(clean_faults.len(), 0, "{algo}");
        assert_eq!(
            faulted.metrics.disk.retries, faulted.metrics.disk.faults_injected,
            "{algo}: every transient injection is matched by one retry"
        );
        assert_eq!(
            faults.len() as u64,
            faulted.metrics.disk.faults_injected,
            "{algo}"
        );
        total_retries += faulted.metrics.disk.retries;
        total_injected += faulted.metrics.disk.faults_injected;
    }
    assert!(
        total_retries > 0 && total_injected > 0,
        "the plans injected nothing; the differential test is vacuous"
    );
}

/// The maintenance twin of the test above: the canonical update stream
/// applied under transient-only plans (the streak cap of 2 is below the
/// store's 4 attempts, so every fault clears) is indistinguishable from
/// its fault-free twin but for the fault tallies. That includes the
/// relation and index an `apply` bulk-loads on the raw store before its
/// buffer pool exists.
#[test]
fn transient_faults_are_invisible_to_maintenance_except_retries() {
    let g = canonical::graph();
    let stream = canonical::update_stream(&g);
    // Per batch: tuple delta, counts with the fault tallies zeroed, and
    // the closure read back; plus the stream's retries.
    let run = |fault: Option<FaultConfig>| {
        let mut cfg = SystemConfig::with_buffer(16);
        cfg.fault = fault;
        let mut dyn_tc = DynamicClosure::build(&g, &cfg).expect("build");
        let (mut batches, mut retries) = (Vec::new(), 0);
        for (i, batch) in stream.batches().iter().enumerate() {
            let res = dyn_tc
                .apply(batch)
                .unwrap_or_else(|e| panic!("batch {i}: {e}"));
            let mut counts = res.metrics.counts;
            assert_eq!(
                counts.disk.retries, counts.disk.faults_injected,
                "batch {i}: every transient injection is matched by one retry"
            );
            retries += counts.disk.retries;
            counts.disk.retries = 0;
            counts.disk.retry_backoff_ms = 0;
            counts.disk.faults_injected = 0;
            let tuples = dyn_tc.tuples().expect("scan");
            batches.push((res.inserted, res.removed, counts, tuples));
        }
        (batches, retries)
    };
    let (clean, none) = run(None);
    assert_eq!(none, 0);
    for seed in 0..4 {
        let plan = FaultConfig::new(seed)
            .transient_reads(0.05)
            .transient_writes(0.05);
        let (faulted, retries) = run(Some(plan));
        assert!(retries > 0, "plan {seed} injected nothing");
        for (i, (f, c)) in faulted.iter().zip(&clean).enumerate() {
            assert_eq!((f.0, f.1), (c.0, c.1), "plan {seed}, batch {i}");
            assert!(f.2 == c.2, "plan {seed}, batch {i}: {:?}", c.2.diff(&f.2));
            assert!(f.3 == c.3, "plan {seed}, batch {i}: closure diverged");
        }
    }
}

/// The faults of a faulted run replay bit-for-bit: same seed, same
/// workload, same fault events at the same places in the stream.
#[test]
fn fault_trace_replays_across_runs() {
    let g = workload();
    let run = || {
        let mut db = Database::build(&g, true).unwrap();
        let (cfg, faults) = Faults::arm(
            SystemConfig::default().faulted(
                FaultConfig::new(7)
                    .transient_reads(0.1)
                    .transient_writes(0.1),
            ),
        );
        (
            db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap(),
            faults.take(),
        )
    };
    let ((a, a_faults), (b, b_faults)) = (run(), run());
    assert!(!a_faults.is_empty(), "the plan injected nothing");
    assert_eq!(a_faults, b_faults);
    assert_eq!(a.metrics.disk.retries, b.metrics.disk.retries);
    assert_eq!(
        a.metrics.disk.retry_backoff_ms,
        b.metrics.disk.retry_backoff_ms
    );
}

// ---------------------------------------------------------------------
// Satellite (b): buffer-pool invariants under random fault plans
// ---------------------------------------------------------------------

/// A raw generated fault schedule: `(op_index, kind_code)` pairs, kept
/// raw so the shrinker can drop entries and report the minimal failing
/// schedule.
type RawCase = (u64, Vec<(u64, u8)>);

fn kind_of(code: u8) -> FaultKind {
    match code % 4 {
        0 => FaultKind::TransientRead,
        1 => FaultKind::TransientWrite,
        2 => FaultKind::PermanentRead,
        _ => FaultKind::Corrupt,
    }
}

fn gen_case(rng: &mut Rng) -> RawCase {
    let seed = rng.next_u64();
    let schedule = check::vec_of(rng, 0..12usize, |r| {
        (r.random_range(0..150u64), r.random_range(0..4u8))
    });
    (seed, schedule)
}

fn shrink_case(&(seed, ref schedule): &RawCase) -> Vec<RawCase> {
    check::shrink_vec(schedule)
        .into_iter()
        .map(|s| (seed, s))
        .collect()
}

/// Drives one pool through a deterministic op mix under the case's fault
/// plan, checking structural invariants after every step.
fn pool_invariants_hold(case: &RawCase, policy: PagePolicy) -> Result<(), String> {
    let &(seed, ref schedule) = case;
    let mut disk = DiskSim::new();
    let file = disk.create_file(FileKind::Temp);
    let mut pids = Vec::new();
    for i in 0..12u32 {
        let pid = disk.alloc(file).unwrap();
        let mut p = Page::new();
        p.put_u32(0, i);
        disk.write_page(pid, &p).unwrap();
        pids.push(pid);
    }
    let mut cfg = FaultConfig::new(seed)
        .transient_reads(0.1)
        .transient_writes(0.1)
        .permanent_reads(0.01)
        .corrupt_writes(0.02);
    for &(op, code) in schedule {
        cfg = cfg.at_op(op, kind_of(code));
    }
    disk.set_fault_plan(FaultPlan::new(cfg));

    let mut pool = BufferPool::new(disk, 4, policy);
    let mut rng = Rng::from_seed(seed ^ 0x600D);
    let mut pinned: Vec<PageId> = Vec::new();
    for step in 0..120 {
        let pid = *rng.choose(&pids).unwrap();
        let r: Result<(), StorageError> = match rng.random_range(0..5u8) {
            0 => pool.with_page(pid, |_p: &Page| ()),
            1 => pool.with_page_mut(pid, |p: &mut Page| p.put_u32(4, step)),
            2 if pinned.len() < 3 => pool.pin(pid).map(|()| pinned.push(pid)),
            3 if !pinned.is_empty() => {
                let p = pinned.swap_remove(rng.random_range(0..pinned.len()));
                pool.unpin(p);
                Ok(())
            }
            _ => pool.flush_all(),
        };
        // Errors are expected (that is the point); corruption must stay
        // *detected*, never silent. The store retries transient faults,
        // so a bare `TransientIo` never reaches the pool's caller.
        if let Err(e) = r {
            if !matches!(
                e,
                StorageError::RetriesExhausted { .. }
                    | StorageError::PermanentFault(_)
                    | StorageError::ChecksumMismatch { .. }
                    | StorageError::AllFramesPinned
            ) {
                return Err(format!("step {step} ({policy:?}): unexpected error {e}"));
            }
        }
        pool.check_invariants()
            .map_err(|v| format!("step {step} ({policy:?}): {v}"))?;
        // Pins nest per page: compare frames against *distinct* pages.
        let mut distinct: Vec<PageId> = pinned.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if pool.pinned_frames() != distinct.len() {
            return Err(format!(
                "step {step} ({policy:?}): {} frames pinned, expected {}",
                pool.pinned_frames(),
                distinct.len()
            ));
        }
    }
    for p in pinned.drain(..) {
        pool.unpin(p);
    }
    if pool.pinned_frames() != 0 {
        return Err(format!("({policy:?}): pins leaked after drain"));
    }
    pool.check_invariants()
        .map_err(|v| format!("({policy:?}): {v}"))
}

#[test]
fn pool_invariants_hold_under_random_fault_plans() {
    Checker::new("pool_invariants_hold_under_random_fault_plans")
        .cases(48)
        .run(
            |rng| gen_case(rng),
            shrink_case,
            |case| {
                for policy in PagePolicy::ALL {
                    pool_invariants_hold(case, policy)?;
                }
                Ok(())
            },
        );
}
