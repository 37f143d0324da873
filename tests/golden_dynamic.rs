//! Golden digests for the dynamic-maintenance layer.
//!
//! Companion to `golden_trace.rs` (static algorithm traces) and
//! `golden_report.rs` (section report fragments): pins the FNV-1a
//! digest of the canonical G5 update-stream maintenance trace, and
//! holds the rendered `updates` section to the scheduler's
//! byte-identical-at-any-jobs contract (its digest is
//! `golden_report.rs`'s).
//!
//! Re-pinning: PINS.md (one protocol for every pin file).

use std::sync::Arc;
use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::trace::{DigestSink, Tracer};

/// Pinned (hash, event count) of the canonical update-stream trace
/// (`canonical::graph` and `canonical::update_stream`, 20-page buffer),
/// one digest across both applies.
const GOLDEN_STREAM: (u64, u64) = (0x363B486FD0003B5C, 70978);

#[test]
fn canonical_update_stream_trace_matches_golden_digest() {
    let g = canonical::graph();
    let sink = Arc::new(DigestSink::new());
    let cfg = SystemConfig::with_buffer(20).traced(Tracer::new(sink.clone()));
    let mut dyn_tc = DynamicClosure::build(&g, &cfg).expect("build");
    for batch in canonical::update_stream(&g).batches() {
        dyn_tc.apply(batch).expect("apply");
    }
    let d = sink.digest();
    assert_eq!(
        (d.hash, d.count),
        GOLDEN_STREAM,
        "the canonical update-stream trace changed — if intentional, set \
         GOLDEN_STREAM to ({:#018X}, {}) and note the trace break in \
         CHANGES.md",
        d.hash,
        d.count,
    );
}

#[test]
fn updates_report_matches_golden_digest_at_any_jobs() {
    // `golden_report.rs` pins the fragment at the default jobs count;
    // equal at 1 and 4 workers, the pin holds at any.
    let f = tc_bench::experiments::section("updates").expect("updates section registered");
    let jobs1 = f(&tc_bench::ExpOpts::quick().jobs(1)).expect("updates at jobs=1");
    let jobs4 = f(&tc_bench::ExpOpts::quick().jobs(4)).expect("updates at jobs=4");
    assert_eq!(
        jobs1, jobs4,
        "updates report diverged between jobs=1 and jobs=4 — a cell is \
         reading shared state"
    );
}
