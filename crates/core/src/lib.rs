//! The SIGMOD '94 transitive-closure algorithms and query engine.
//!
//! This crate implements the paper's uniform two-phase framework (§4) over
//! the simulated storage substrate:
//!
//! 1. **Restructuring phase** (common to all algorithms,
//!    [`restructure`]): topologically sort the input, convert relation
//!    tuples into paged successor lists, identify the magic subgraph for
//!    selection queries, and collect the rectangle-model statistics in the
//!    same pass.
//! 2. **Computation phase** (per algorithm, [`algorithms`]): expand the
//!    successor lists and write the expanded lists out.
//!
//! The seven candidate implementations from the paper, plus a paged
//! Seminaive baseline from its related-work survey:
//!
//! | [`Algorithm`] | Paper name | Distinguishing idea |
//! |---|---|---|
//! | `Btc` | BTC \[12\] | marking + immediate successor optimization |
//! | `Hyb` | Hybrid \[2\] | blocking with a pinned diagonal block |
//! | `Bj`  | BFS \[18\] | single-parent reduction for PTC |
//! | `Srch`| Search \[15\] | per-source search, no restructuring payoff |
//! | `Spn` | Spanning Tree \[6,14\] | successor trees with subtree pruning |
//! | `Jkb` | Compute_Tree \[15\] | special-node predecessor trees |
//! | `Jkb2`| Compute_Tree + dual representation | inverse relation clustered on destination |
//! | `Seminaive` | baseline \[19\] | delta iteration over the relation |
//!
//! # Quickstart
//!
//! ```
//! use tc_core::prelude::*;
//! use tc_graph::DagGenerator;
//!
//! let graph = DagGenerator::new(500, 3.0, 100).seed(7).generate();
//! let mut db = Database::build(&graph, true).unwrap();
//! let cfg = SystemConfig::default(); // M = 10 pages, LRU
//!
//! // Full transitive closure with BTC.
//! let full = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap();
//! println!("page I/O: {}", full.metrics.total_io());
//!
//! // Partial closure from three sources with Compute_Tree.
//! let ptc = db.run(&Query::partial(vec![1, 2, 3]), Algorithm::Jkb2, &cfg).unwrap();
//! assert!(ptc.metrics.total_io() < full.metrics.total_io());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod algorithms;
pub mod closure_file;
pub mod config;
pub mod cyclic;
pub mod database;
pub mod dynamic;
pub mod engine;
mod lifecycle;
pub mod metrics;
pub mod query;
pub mod restructure;
pub mod snapshot;

pub use advisor::{Advisor, WorkloadProfile};
pub use config::SystemConfig;
pub use cyclic::{run_cyclic, CyclicResult};
pub use database::Database;
pub use dynamic::{DynamicClosure, UpdateError, UpdateResult};
pub use engine::RunResult;
pub use metrics::{CostMetrics, PhaseIo};
pub use query::Query;
pub use snapshot::ClosedSnapshot;
/// Declared beside the trace vocabulary that names it (`RunBegin`).
pub use tc_trace::Algorithm;

// Compile-time thread-safety audit. The experiment grid in `tc-bench`
// ships these to the workers of `tc_det::run_indexed` (a fresh
// `Database` per cell, `SystemConfig`/`Graph`/`Query` shared by
// reference), so they must stay `Send` (and the shared ones `Sync`).
// Introducing an `Rc`, raw pointer or other thread-bound state anywhere
// inside them turns this into a compile error rather than a scheduler
// regression.
const _: fn() = || {
    fn sendable<T: Send>() {}
    fn shareable<T: Sync>() {}
    sendable::<SystemConfig>();
    shareable::<SystemConfig>();
    sendable::<Database>();
    sendable::<dynamic::DynamicClosure>();
    sendable::<dynamic::UpdateResult>();
    sendable::<Query>();
    shareable::<Query>();
    sendable::<Algorithm>();
    sendable::<CostMetrics>();
    sendable::<RunResult>();
    sendable::<tc_graph::Graph>();
    shareable::<tc_graph::Graph>();
    sendable::<tc_storage::StorageError>();
    // The serving layer shares one snapshot among all worker threads
    // behind an `Arc` — it must be `Send + Sync`, and each session's
    // private store must at least move with its session.
    sendable::<ClosedSnapshot>();
    shareable::<ClosedSnapshot>();
    sendable::<tc_storage::FrozenStore>();
};

/// Convenient glob-import surface: the types needed to load a graph and
/// run queries.
pub mod prelude {
    pub use crate::advisor::{Advisor, WorkloadProfile};
    pub use crate::config::SystemConfig;
    pub use crate::cyclic::{run_cyclic, CyclicResult};
    pub use crate::database::Database;
    pub use crate::dynamic::{DynamicClosure, UpdateError, UpdateResult};
    pub use crate::engine::RunResult;
    pub use crate::metrics::CostMetrics;
    pub use crate::query::Query;
    pub use crate::snapshot::ClosedSnapshot;
    pub use crate::Algorithm;
    pub use tc_buffer::PagePolicy;
    pub use tc_storage::{Backend, FaultConfig, FaultKind, PageStore};
    pub use tc_succ::ListPolicy;
}
