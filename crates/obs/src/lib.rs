//! Wall-clock observability for the transitive-closure study, kept
//! strictly outside the deterministic gate.
//!
//! Everything else in this workspace counts in *deterministic* units —
//! tuples, list unions, page I/O — and pins those counts with digests
//! and golden files. This crate is the complementary instrument: it
//! measures *time*, which is inherently machine- and run-dependent,
//! and therefore obeys one hard contract:
//!
//! > **Never in a digest.** No value produced by this crate — span
//! > durations, histogram quantiles, registry renderings — may flow
//! > into a trace digest, a report byte, a baseline cell, or any other
//! > gated output. Timing rides *beside* the deterministic track
//! > (stderr, `--timing`/`--metrics` files), never inside it.
//!
//! Three pieces, all dependency-free:
//!
//! - [`SpanRecorder`] / [`SpanCollector`] / [`SpanTree`]: hierarchical
//!   RAII spans (phase → iteration → operation) threaded through
//!   `SystemConfig` alongside the `Tracer`. Disabled recorders are a
//!   single `None` branch — no clock read, no allocation — so the
//!   default path costs nothing (enforced by a counting-allocator
//!   test, like the tracer's).
//! - [`LatencyHistogram`]: log-linear HDR-style histograms with a
//!   fixed bucket layout, so merging per-worker histograms is
//!   element-wise addition — order-independent and worker-count
//!   invariant (enforced by a shrink property).
//! - [`MetricsRegistry`] with [`Counter`]/[`Histogram`] handles and
//!   deterministic-order Prometheus-text + JSON exposition, backing
//!   `tcq serve --metrics`.
//!
//! ```
//! use tc_obs::{LatencyHistogram, SpanRecorder};
//!
//! let (rec, collector) = SpanRecorder::collecting();
//! {
//!     let _run = rec.enter("run");
//!     let _phase = rec.enter("compute");
//! }
//! let tree = collector.tree();
//! assert_eq!(tree.find(&["run", "compute"]).map(|n| n.count), Some(1));
//!
//! let mut h = LatencyHistogram::new();
//! h.record(1_200);
//! assert!(h.percentile(99.0) <= 1_200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod registry;
mod span;

pub use hist::LatencyHistogram;
pub use registry::{Counter, Histogram, MetricsRegistry};
pub use span::{SpanCollector, SpanGuard, SpanNode, SpanRecorder, SpanTree};

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering the guard from a poisoned lock: a panic
/// on another thread must not cascade into the observability layer.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// Compile-time audit: the handles threaded through configs and worker
// threads must stay shareable.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SpanRecorder>();
    assert_send_sync::<SpanCollector>();
    assert_send_sync::<SpanTree>();
    assert_send_sync::<LatencyHistogram>();
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<Counter>();
    assert_send_sync::<Histogram>();
};
