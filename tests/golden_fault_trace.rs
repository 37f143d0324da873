//! Golden fault-trace test: replay-determinism guard for fault injection.
//!
//! Companion to `golden_seed.rs`: where that test pins the canonical G5
//! workload, this one pins the *failure trace* a fixed fault seed
//! produces on it. The fault-injection layer's whole value is that a
//! failure can be replayed bit-for-bit from its seed; any change to the
//! decision stream (draw order, op counting, retry behaviour) breaks
//! replayability of previously recorded traces and must be made
//! deliberately.
//!
//! Re-pinning: PINS.md (one protocol for every pin file).

use std::sync::Arc;
use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::storage::FaultEvent;
use tc_study::trace::{DigestSink, Fnv, Tracer};

/// FNV-1a over the (op, page, kind, outcome) event sequence.
fn trace_checksum(events: &[FaultEvent]) -> u64 {
    let mut h = Fnv::new();
    for e in events {
        h.u64(e.op);
        h.u32(e.page.0);
        h.byte(e.kind.code());
        h.byte(e.outcome.code());
    }
    h.finish()
}

const FAULT_SEED: u64 = 0xDA12_1994;
const GOLDEN_EVENTS: usize = 361;
const GOLDEN_TRACE_CHECKSUM: u64 = 0x2B36_967E_0A32_08CA;
const GOLDEN_RETRIES: u64 = 361;
const GOLDEN_TOTAL_IO: u64 = 17624;
/// (hash, event count) of the faulted run's whole event stream, which
/// pins where each `Retry` lands among the transfers it retried.
const GOLDEN_STREAM: (u64, u64) = (0x70C7_5B2D_ACFA_1A74, 11_942_065);

fn faulted_g5_run(trace: Tracer) -> RunResult {
    let g = canonical::graph();
    let mut db = Database::build(&g, true).unwrap();
    let cfg = SystemConfig::with_buffer(20).traced(trace).faulted(
        FaultConfig::new(FAULT_SEED)
            .transient_reads(0.02)
            .transient_writes(0.02),
    );
    db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap()
}

#[test]
fn pinned_fault_seed_yields_pinned_trace_on_g5() {
    let res = faulted_g5_run(Tracer::disabled());
    assert_eq!(
        (
            res.fault_trace.len(),
            trace_checksum(&res.fault_trace),
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
        res.fault_trace.len(),
        trace_checksum(&res.fault_trace),
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
    let (a, b) = (
        faulted_g5_run(Tracer::disabled()),
        faulted_g5_run(Tracer::disabled()),
    );
    assert_eq!(a.fault_trace, b.fault_trace);
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
    let sink = Arc::new(DigestSink::new());
    faulted_g5_run(Tracer::new(sink.clone()));
    let d = sink.digest();
    assert_eq!(
        (d.hash, d.count),
        GOLDEN_STREAM,
        "the faulted event stream changed: ({:#018X}, {}) — if intentional, \
         update GOLDEN_STREAM and note the replay break in CHANGES.md",
        d.hash,
        d.count,
    );
}
