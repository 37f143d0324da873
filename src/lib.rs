//! Umbrella crate for the SIGMOD '94 transitive-closure study reproduction.
//!
//! Re-exports every layer of the system so that examples and downstream
//! users can depend on a single crate:
//!
//! * [`det`] — deterministic PRNG, property-test harness.
//! * [`storage`] — simulated disk, page layouts, relation files, indexes.
//! * [`buffer`] — buffer pool with pluggable replacement policies.
//! * [`graph`] — DAG workloads, rectangle model, reference closures.
//! * [`succ`] — the paged successor-list / successor-tree store.
//! * [`core`] — the seven algorithm implementations and the query engine.
//! * [`reach`] — the chain-decomposition reachability index (`REACHINDEX`).
//! * [`serve`] — the in-process query service over frozen snapshots.
//! * [`trace`] — typed event traces, JSONL export, trace⇒metrics replay.
//! * [`obs`] — wall-clock spans, latency histograms, metrics registry;
//!   strictly outside the deterministic gate.
//! * [`profile`] — trace-driven profiling: phase/file/page attribution,
//!   buffer-residency and miss-class analytics, Spearman rank correlation.
//!
//! See the repository README for a quickstart and `DESIGN.md` for the
//! full system inventory.

#![forbid(unsafe_code)]

pub mod cli;

pub use tc_buffer as buffer;
pub use tc_core as core;
pub use tc_det as det;
pub use tc_graph as graph;
pub use tc_obs as obs;
pub use tc_profile as profile;
pub use tc_reach as reach;
pub use tc_serve as serve;
pub use tc_storage as storage;
pub use tc_succ as succ;
pub use tc_trace as trace;

pub use tc_core::prelude::*;
