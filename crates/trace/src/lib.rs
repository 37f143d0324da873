//! Deterministic event-trace observability for the transitive-closure
//! study.
//!
//! The study's methodological point is that only fine-grained accounting
//! of page I/O explains algorithm cost — but an aggregate counter cannot
//! show *when* the I/O happened, nor prove that the counter itself is
//! right. This crate adds the missing layer: every counted unit of work
//! (a physical page transfer, a buffer request, a successor-list union,
//! an emitted answer tuple, an injected fault, ...) emits exactly one
//! typed [`Event`] through a [`Tracer`] handle, and
//! [`replay`](replay::replay) folds an event stream back into the full
//! cost-metric suite, a [`Counts`]. The equivalence
//!
//! ```text
//! metrics.counts == replay(trace)
//! ```
//!
//! is therefore machine-checkable for every algorithm and every
//! workload. What an event counts is defined once per counter table
//! ([`DiskStats::on`], [`BufferStats::on`], and [`Counts::on`] over
//! them), and everything that counts — the store, the buffer pool, the
//! engine's `count_*` methods — counts by folding the event it emits, so
//! those counters agree with the fold by construction. What is still
//! derived two ways is the phase split (the engine's snapshot deltas at
//! the boundary vs. the boundary event's position in the stream), the
//! answer count and the I/O-time estimate, so a misplaced boundary or a
//! lost answer tuple breaks the test.
//!
//! # Design
//!
//! * **Zero cost when disabled.** A [`Tracer`] is an
//!   `Option<Arc<dyn TraceSink>>`; the disabled tracer's
//!   [`emit`](Tracer::emit) is an inlined `None` branch over a [`Copy`]
//!   event — no allocation, no virtual call, no locking.
//! * **Deterministic streams.** Events carry no wall-clock timestamps
//!   and no addresses; with the workspace's seeded workloads the same
//!   run produces the same byte stream, so traces can be pinned by an
//!   FNV-1a digest ([`DigestSink`]) exactly like the golden workloads.
//! * **Scheduler independence.** Sinks are `Send + Sync` and shared by
//!   `Arc`, so a tracer can cross the experiment scheduler's thread
//!   boundary; one sink per experiment *cell* keeps concurrent cells
//!   from interleaving their streams.
//!
//! # Sinks
//!
//! | Sink | Storage | Use |
//! |---|---|---|
//! | disabled | none | production default (zero cost) |
//! | [`VecSink`] | all events | replay tests |
//! | [`DigestSink`] | 16 bytes | golden pins at G5 scale (millions of events) |
//! | [`JsonlSink`] | external writer | `--trace` export for offline analysis |
//! | [`TeeSink`] | none (fan-out) | one stream into several sinks (digest + profile) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counts;
pub mod digest;
pub mod event;
pub mod replay;
pub mod sink;

pub use counts::{compute_buffer_is_whole_run, BufferStats, Counts, DiskStats, PhaseIo, Rect};
pub use digest::{digest_events, Fnv, LaneHash, TraceDigest};
pub use event::{Algorithm, Event, FaultKind, Kind, ParseError, Phase};
pub use replay::{replay, ReplayError};
pub use sink::{DigestSink, JsonlSink, TeeSink, TraceSink, Tracer, VecSink};

// Compile-time thread-safety audit: tracers are embedded in
// `SystemConfig` / `CostMetrics`, which the experiment scheduler ships
// across `std::thread::scope`. A non-`Send` sink handle (an `Rc`, a
// thread-bound writer) must fail here, not in the scheduler.
const _: fn() = || {
    fn sendable<T: Send>() {}
    fn shareable<T: Sync>() {}
    sendable::<Tracer>();
    shareable::<Tracer>();
    sendable::<Event>();
    shareable::<VecSink>();
    shareable::<DigestSink>();
};
