//! Zero-cost-when-disabled guard for both observers: the event tracer
//! and the wall-clock span recorder.
//!
//! An observer must be free when off and inert when on. Off: a disabled
//! [`Tracer`]'s `emit` is a single branch over a `Copy` event, and a
//! disabled [`SpanRecorder`]'s `enter` a single `None` branch — no
//! clock read, no allocation. On: the canonical G5 BTC run counts the
//! same with a trace sink attached or a span collector armed as one
//! unarmed run that both comparisons share. Together these are the
//! contract that observing a run never flows into (or changes) any
//! gated number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};
use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::obs::SpanRecorder;
use tc_study::trace::{Counts, DigestSink, Event, Kind, Phase, Tracer};

/// Counts allocations per thread (thread-local, so the harness running
/// other tests concurrently in this binary cannot perturb the count).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY-FREE: pure delegation to `System` plus a Cell bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn disabled_tracer_emit_does_not_allocate() {
    let t = Tracer::disabled();
    assert!(!t.is_enabled());
    // Exercise a representative spread of event shapes, including the
    // field-heavy ones.
    let before = allocs_on_this_thread();
    for i in 0..10_000u64 {
        t.emit(Event::BufHit {
            page: i as u32,
            read: true,
        });
        t.emit(Event::PageWrite {
            page: i as u32,
            kind: Kind::Temp,
        });
        t.emit(Event::Union);
        t.emit(Event::Locality { delta: i as f64 });
        t.emit(Event::PhaseBegin {
            phase: Phase::Compute,
        });
        t.emit(Event::Rect {
            height: 1.0,
            width: 2.0,
            max_level: 3,
            arcs: i,
            nodes: i,
        });
    }
    let after = allocs_on_this_thread();
    assert_eq!(after - before, 0, "a disabled Tracer::emit allocated");
}

#[test]
fn disabled_recorder_enter_does_not_allocate() {
    let rec = SpanRecorder::disabled();
    assert!(!rec.is_enabled());
    // Nested guards too: the whole RAII path (enter + drop) must stay
    // allocation-free when disabled, since it sits inside per-page and
    // per-iteration engine loops.
    let before = allocs_on_this_thread();
    for _ in 0..10_000u64 {
        let _run = rec.enter("run");
        let _phase = rec.enter("compute");
        let _op = rec.enter("union");
    }
    let after = allocs_on_this_thread();
    assert_eq!(after - before, 0, "a disabled SpanRecorder allocated");
}

/// The canonical G5 BTC run's counts under `cfg`, on a fresh database.
fn g5_btc_counts(cfg: SystemConfig) -> Counts {
    let mut db = Database::build(&canonical::graph(), true).unwrap();
    let res = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap();
    res.metrics.counts
}

/// The unarmed run both armed runs compare with: both observers compiled
/// in but disabled (the production default). The golden value itself is
/// `golden_fault_trace.rs`'s.
fn unarmed() -> &'static Counts {
    static UNARMED: OnceLock<Counts> = OnceLock::new();
    UNARMED.get_or_init(|| g5_btc_counts(SystemConfig::with_buffer(20)))
}

#[test]
fn golden_g5_metrics_are_identical_with_and_without_tracing() {
    let sink = Arc::new(DigestSink::new());
    let traced = g5_btc_counts(SystemConfig::with_buffer(20).traced(Tracer::new(sink.clone())));
    assert!(sink.digest().count > 0, "sink saw no events");
    assert_eq!(traced, *unarmed(), "a trace sink changed the counts");
}

#[test]
fn golden_g5_metrics_are_identical_with_and_without_spans() {
    // Span-armed, while the collector demonstrably recorded the phases.
    let (rec, collector) = SpanRecorder::collecting();
    let observed = g5_btc_counts(SystemConfig::with_buffer(20).observed(rec));
    let compute = collector.tree().find(&["run", "compute"]).map(|n| n.count);
    assert!(compute > Some(0), "the collector saw no compute span");
    assert_eq!(observed, *unarmed(), "a span collector changed the counts");
}
