//! Golden fault-trace test: replay-determinism guard for fault injection.
//!
//! Companion to `golden_seed.rs`: where that test pins the canonical G5
//! workload, this one pins the *failure trace* a fixed fault seed
//! produces on it. The fault-injection layer's whole value is that a
//! failure can be replayed bit-for-bit from its seed; any change to the
//! decision stream (draw order, op counting, retry behaviour) breaks
//! replayability of previously recorded traces and must be made
//! deliberately. The faults are read off the run's event stream, their
//! one record, by a sink that keeps nothing else.
//!
//! Re-pinning: PINS.md (one protocol for every pin file).

use std::sync::{Arc, Mutex};
use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::trace::{DigestSink, Event, Fnv, TeeSink, TraceDigest, TraceSink, Tracer};

/// One fault of a run: its position in the run's event stream, its page
/// and its kind code ([`DETECTED`] for a checksum catch).
type Fault = (u64, u32, u8);

/// The code a `CorruptionDetected` event folds as: the one after the
/// last fault kind's.
const DETECTED: u8 = FaultKind::ALL.len() as u8;

/// Keeps a run's faults, and nothing else, of its event stream: the
/// faulted run emits 11.9 M events, of which this keeps a few hundred.
#[derive(Default)]
struct FaultLog(Mutex<(u64, Vec<Fault>)>);

impl TraceSink for FaultLog {
    fn emit(&self, ev: Event) {
        let mut log = self.0.lock().expect("no emitter panicked");
        let at = log.0;
        log.0 += 1;
        match ev {
            Event::FaultInjected { page, fault } => log.1.push((at, page, fault.code())),
            Event::CorruptionDetected { page } => log.1.push((at, page, DETECTED)),
            _ => {}
        }
    }
}

/// FNV-1a over the (position, page, kind) fault sequence.
fn trace_checksum(faults: &[Fault]) -> u64 {
    let mut h = Fnv::new();
    for &(at, page, code) in faults {
        h.u64(at);
        h.u32(page);
        h.byte(code);
    }
    h.finish()
}

const FAULT_SEED: u64 = 0xDA12_1994;
const GOLDEN_EVENTS: usize = 361;
const GOLDEN_TRACE_CHECKSUM: u64 = 0x9127_A53A_034A_8702;
const GOLDEN_RETRIES: u64 = 361;
const GOLDEN_TOTAL_IO: u64 = 17624;
/// (hash, event count) of the faulted run's whole event stream, which
/// pins where each `Retry` lands among the transfers it retried.
const GOLDEN_STREAM: (u64, u64) = (0x70C7_5B2D_ACFA_1A74, 11_942_065);

/// The pinned faulted run, with its faults read off its event stream and
/// the digest of the whole stream.
fn faulted_g5_run() -> (RunResult, Vec<Fault>, TraceDigest) {
    let g = canonical::graph();
    let mut db = Database::build(&g, true).unwrap();
    let (log, digest) = (Arc::new(FaultLog::default()), Arc::new(DigestSink::new()));
    let tee = TeeSink::new(vec![log.clone(), digest.clone()]);
    let cfg = SystemConfig::with_buffer(20)
        .traced(Tracer::new(Arc::new(tee)))
        .faulted(
            FaultConfig::new(FAULT_SEED)
                .transient_reads(0.02)
                .transient_writes(0.02),
        );
    let res = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap();
    let faults = std::mem::take(&mut log.0.lock().expect("no emitter panicked").1);
    (res, faults, digest.digest())
}

#[test]
fn pinned_fault_seed_yields_pinned_trace_on_g5() {
    let (res, faults, _) = faulted_g5_run();
    assert_eq!(
        (
            faults.len(),
            trace_checksum(&faults),
            res.metrics.disk.retries,
            res.metrics.total_io(),
        ),
        (
            GOLDEN_EVENTS,
            GOLDEN_TRACE_CHECKSUM,
            GOLDEN_RETRIES,
            GOLDEN_TOTAL_IO,
        ),
        "the pinned fault trace changed: events {} checksum {:#018X} \
         retries {} total_io {} — if intentional, update the golden \
         constants and note the replay break in CHANGES.md",
        faults.len(),
        trace_checksum(&faults),
        res.metrics.disk.retries,
        res.metrics.total_io(),
    );
}

#[test]
fn transient_faults_leave_g5_page_io_at_the_fault_free_golden_value() {
    // The golden total above must be exactly the fault-free number:
    // failed attempts are not counted as physical transfers.
    let g = canonical::graph();
    let mut db = Database::build(&g, true).unwrap();
    let res = db
        .run(
            &Query::full(),
            Algorithm::Btc,
            &SystemConfig::with_buffer(20),
        )
        .unwrap();
    assert_eq!(res.metrics.total_io(), GOLDEN_TOTAL_IO);
    assert_eq!(res.metrics.disk.retries, 0);
}

#[test]
fn two_consecutive_faulted_runs_agree_bit_for_bit() {
    let ((a, a_faults, _), (b, b_faults, _)) = (faulted_g5_run(), faulted_g5_run());
    assert_eq!(a_faults, b_faults);
    assert_eq!(a.metrics.total_io(), b.metrics.total_io());
    assert_eq!(a.metrics.disk.retries, b.metrics.disk.retries);
    assert_eq!(
        a.metrics.disk.retry_backoff_ms,
        b.metrics.disk.retry_backoff_ms
    );
    assert_eq!(
        a.metrics.disk.faults_injected,
        b.metrics.disk.faults_injected
    );
    assert_eq!(a.metrics.tuples_generated, b.metrics.tuples_generated);
}

#[test]
fn the_faulted_event_stream_matches_its_golden_digest() {
    let (_, _, d) = faulted_g5_run();
    assert_eq!(
        (d.hash, d.count),
        GOLDEN_STREAM,
        "the faulted event stream changed: ({:#018X}, {}) — if intentional, \
         update GOLDEN_STREAM and note the replay break in CHANGES.md",
        d.hash,
        d.count,
    );
}
