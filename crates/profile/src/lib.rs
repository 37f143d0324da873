//! Trace-driven profiling for the transitive-closure study.
//!
//! `tc-trace` (PR 4) made every counted unit of work observable as a
//! typed event stream; this crate *consumes* those streams. A
//! [`ProfileFold`] is a single deterministic pass over an event
//! sequence that derives what the paper's analysis sections actually
//! argue from:
//!
//! * **Attribution** — physical page reads/writes broken down by phase
//!   × file kind × fixpoint iteration, plus a top-K hot-page histogram
//!   (§5's "where does the I/O go").
//! * **Buffer analytics** — per-file hit rates, eviction and
//!   write-back counts, a residency timeline, and a three-way miss
//!   classification (*cold* / *capacity* / *self*: re-fetch after the
//!   file evicted its own page — the successor-list pathology of §6).
//! * **Metric predictiveness** — integer Spearman rank correlation
//!   ([`spearman_from_ranks`]) of the "misleading" logical metrics against
//!   page I/O, machine-checking Table 4's central claim.
//!
//! Everything is **byte-deterministic**: integer or fixed-point
//! arithmetic only, canonical orderings, no wall-clock — so the
//! rendered report ([`render`]) is digest-pinnable exactly like a
//! trace, and profiles computed live ([`ProfileSink`]) or offline
//! ([`profile_events`], [`profile_jsonl`]) are identical.
//!
//! The crate is zero-dependency (only `tc-trace`, which parses the
//! JSONL dialect it writes), so `tcq analyze <trace.jsonl>` works
//! without any external JSON machinery ([`jsonl`] streams the lines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corr;
pub mod fold;
pub mod jsonl;
pub mod report;
pub mod sink;

pub use corr::{format_milli, ranks_f64, spearman_from_ranks};
pub use fold::{
    kind_label, profile_events, HotPage, MissClasses, Profile, ProfileFold, ResidencySample,
    KIND_SLOTS, UNKNOWN,
};
pub use jsonl::{fold_jsonl, profile_jsonl, JsonlError, ParseError};
pub use report::render;
pub use sink::ProfileSink;

// Compile-time thread-safety audit: a ProfileSink crosses the
// experiment scheduler's thread boundary inside a `Tracer`.
const _: fn() = || {
    fn shareable<T: Sync + Send>() {}
    shareable::<ProfileSink>();
};
