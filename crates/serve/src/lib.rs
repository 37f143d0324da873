//! tc-serve: an in-process concurrent query service over frozen
//! closure snapshots.
//!
//! The paper's algorithms build transitive closures; this crate serves
//! them. A completed build is frozen into an immutable
//! [`tc_core::ClosedSnapshot`] (shared page images behind an `Arc`),
//! and a [`Service`] answers typed point queries against it:
//!
//! * [`Request::Reach`] — does `u` reach `v`? (reachability-index
//!   labels, or the session's hot-source cache)
//! * [`Request::Ptc`] — the full reachable set of `u` (materialized
//!   closure row)
//! * [`Request::Path`] — one concrete arc-by-arc path (guided walk of
//!   the clustered index)
//!
//! The design is message-driven and fully in-process: each client's
//! requests sit in a private queue, the workers of `tc-det`'s one pool
//! ([`tc_det::run_indexed`]) claim whole clients and answer their
//! queues in order, and every session owns its buffer
//! pool and [hot-source cache](session) so sessions never contend.
//! Consequently the *deterministic track* — total pages read, cache
//! hit counts, per-reply digests — is byte-identical at any
//! worker count, while the *wall-time track* (latency percentiles,
//! queries/sec) is reported separately and never gates anything.
//!
//! [`Service::publish`] swaps in a new snapshot atomically (e.g. after
//! a `DynamicClosure::apply` batch is re-frozen): in-flight requests
//! finish on the epoch they started, new requests see the new epoch,
//! and each reply reflects exactly one consistent closure.
//!
//! Load comes from [`QueryStream`]: seeded closed- or open-loop query
//! mixes with Zipf-skewed sources, replayable bit-for-bit from their
//! parameters alone.

pub mod load;
pub mod obs;
pub mod request;
pub mod service;
pub mod session;

pub use load::{LoopMode, MixSpec, QueryStream, CANONICAL_SERVE_SEED};
pub use obs::ServeObs;
pub use request::{Reply, Request};
pub use service::{ClientReport, ReplyRecord, ServeConfig, ServeError, ServeReport, Service};
pub use session::{Session, SessionConfig, SessionStats};

/// Compile-time thread-safety audit (extends the PR 3 Send/Sync audit):
/// sessions migrate to worker threads, the service is shared across
/// them, and streams/replies travel between threads freely.
const _: () = {
    const fn sendable<T: Send>() {}
    const fn shareable<T: Sync>() {}
    sendable::<Session>();
    sendable::<QueryStream>();
    shareable::<QueryStream>();
    shareable::<Service>();
    sendable::<ServeReport>();
    sendable::<Reply>();
    shareable::<Reply>();
    sendable::<ServeObs>();
    shareable::<ServeObs>();
};
