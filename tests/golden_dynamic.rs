//! Golden digests for the dynamic-maintenance layer.
//!
//! Companion to `golden_trace.rs` (static algorithm traces) and
//! `golden_report.rs` (section report fragments): pins the FNV-1a
//! digest of the canonical G5 update-stream maintenance trace and of
//! the rendered `updates` section report, and holds the section to the
//! scheduler's byte-identical-at-any-jobs contract.
//!
//! If an intentional change lands, regenerate the constants below (the
//! failure messages print the new values) and note the break in
//! CHANGES.md.

use std::sync::Arc;
use tc_study::core::prelude::*;
use tc_study::graph::{DagGenerator, Graph, StreamKind, UpdateStream};
use tc_study::trace::{DigestSink, Tracer};

/// Pinned (hash, event count) of the canonical update-stream trace:
/// the canonical G5 instance (n = 2000, F = 5, l = 200, seed 7),
/// mixed-churn stream of 2 batches × 8 ops at locality 200 with seed
/// 0xD41A_0007, 20-page buffer, one digest across both applies.
const GOLDEN_STREAM: (u64, u64) = (0xC59D22F3B9FBCD4F, 168826);

/// Pinned FNV-1a digest of the `updates` section report fragment on the
/// quick grid (1 instance × 1 source set) — the same value
/// `golden_report.rs` pins for the section in its registry-wide table.
const GOLDEN_UPDATES_REPORT: u64 = 0xEF6DDFDF95DC701E;

/// FNV-1a over a report fragment's bytes (same family as the other
/// golden suites).
fn digest(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn canonical_graph() -> Graph {
    DagGenerator::new(2000, 5.0, 200).seed(7).generate()
}

/// Must match `tests/dynamic_differential.rs`'s canonical stream.
fn canonical_stream(g: &Graph) -> UpdateStream {
    UpdateStream::generate(g, StreamKind::Mixed, 2, 8, 200, 0xD41A_0007)
}

#[test]
fn canonical_update_stream_trace_matches_golden_digest() {
    let g = canonical_graph();
    let sink = Arc::new(DigestSink::new());
    let cfg = SystemConfig::with_buffer(20).traced(Tracer::new(sink.clone()));
    let mut dyn_tc = DynamicClosure::build(&g, &cfg).expect("build");
    for batch in canonical_stream(&g).batches() {
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
    let f = tc_bench::experiments::section("updates").expect("updates section registered");
    let jobs1 = f(&tc_bench::ExpOpts::quick().jobs(1)).expect("updates at jobs=1");
    let jobs4 = f(&tc_bench::ExpOpts::quick().jobs(4)).expect("updates at jobs=4");
    assert_eq!(
        jobs1, jobs4,
        "updates report diverged between jobs=1 and jobs=4 — a cell is \
         reading shared state"
    );
    let d = digest(&jobs1);
    assert_eq!(
        d, GOLDEN_UPDATES_REPORT,
        "the updates report fragment changed — if intentional, set \
         GOLDEN_UPDATES_REPORT to {d:#018X} (and the matching row in \
         tests/golden_report.rs) and note the break in CHANGES.md",
    );
}
