//! Zero-cost-when-disabled guard for the wall-clock span layer.
//!
//! Companion to `trace_overhead.rs` (the event tracer's guard): a
//! disabled [`SpanRecorder`]'s `enter` is a single `None` branch — no
//! clock read, no allocation — and arming a collector must not perturb
//! a single deterministic metric: the canonical G5 BTC run stays at its
//! golden 17624 page transfers with spans recorded or not. Together
//! these are the obs crate's half of the repo-wide contract that
//! timing never flows into (or changes) any gated number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::obs::SpanRecorder;

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

const GOLDEN_TOTAL_IO: u64 = 17624;

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
    assert_eq!(
        after - before,
        0,
        "a disabled SpanRecorder::enter allocated — the no-op path must be free"
    );
}

#[test]
fn golden_g5_metrics_are_identical_with_and_without_spans() {
    let g = canonical::graph();

    // Unobserved run: the golden number must hold with span recording
    // compiled in but disabled (the production default).
    let mut db = Database::build(&g, true).unwrap();
    let plain = db
        .run(
            &Query::full(),
            Algorithm::Btc,
            &SystemConfig::with_buffer(20),
        )
        .unwrap();
    assert_eq!(
        plain.metrics.total_io(),
        GOLDEN_TOTAL_IO,
        "spans-disabled G5 BTC page I/O moved off the golden value"
    );

    // Observed run: every deterministic metric field identical, while
    // the collector demonstrably recorded the phase spans.
    let mut db = Database::build(&g, true).unwrap();
    let (rec, collector) = SpanRecorder::collecting();
    let cfg = SystemConfig::with_buffer(20).observed(rec);
    let observed = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap();
    let tree = collector.tree();
    assert!(
        tree.find(&["run", "compute"]).is_some_and(|n| n.count > 0),
        "collector saw no compute span:\n{}",
        tree.render()
    );
    assert_eq!(observed.metrics.total_io(), GOLDEN_TOTAL_IO);
    assert_eq!(
        observed.metrics.counts, plain.metrics.counts,
        "recording spans changed the measured metrics"
    );
}
