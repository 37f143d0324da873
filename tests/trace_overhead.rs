//! Zero-cost-when-disabled guard for the observability layer.
//!
//! Tracing must be free when off and inert when on: a disabled
//! [`Tracer`]'s `emit` is a single branch over a `Copy` event (no
//! allocation), and attaching a sink must not perturb a single metric —
//! the canonical G5 BTC run stays at its golden 17624 page transfers
//! either way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::trace::{DigestSink, Event, Kind, Phase, Tracer};

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
    assert_eq!(
        after - before,
        0,
        "a disabled Tracer::emit allocated — the no-op path must be free"
    );
}

#[test]
fn golden_g5_metrics_are_identical_with_and_without_tracing() {
    let g = canonical::graph();

    // Untraced run: the golden number must hold with tracing compiled in
    // but disabled (the production default).
    let mut db = Database::build(&g, true).unwrap();
    let untraced = db
        .run(
            &Query::full(),
            Algorithm::Btc,
            &SystemConfig::with_buffer(20),
        )
        .unwrap();
    assert_eq!(
        untraced.metrics.total_io(),
        GOLDEN_TOTAL_IO,
        "tracing-disabled G5 BTC page I/O moved off the golden value"
    );

    // Traced run (streaming digest sink): every metric field identical.
    let mut db = Database::build(&g, true).unwrap();
    let sink = Arc::new(DigestSink::new());
    let cfg = SystemConfig::with_buffer(20).traced(Tracer::new(sink.clone()));
    let traced = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap();
    assert!(sink.digest().count > 0, "sink saw no events");
    assert_eq!(traced.metrics.total_io(), GOLDEN_TOTAL_IO);
    assert_eq!(
        traced.metrics.counts, untraced.metrics.counts,
        "attaching a sink changed the measured metrics"
    );
}
