//! Chain-decomposition reachability index — the modern fast path the
//! study's ROADMAP sets against the eight 1994 disk-based algorithms.
//!
//! Kritikakis & Tollis (*Parameterized Linear Time Transitive Closure*;
//! *Fast and Practical DAG Decomposition with Reachability
//! Applications*) decompose a DAG into k concurrent chains and give each
//! node a k-entry interval label; `reach(u, v)` is then a single label
//! comparison and a partial transitive closure is a scan of chain
//! suffixes. Construction is O(k·(n+m)), space O(k·n), and k — the
//! decomposition width — is the knob: on *narrow* DAGs (the rectangle
//! model's low-`W` regime, §5.3) the index is tiny and queries are
//! orders of magnitude cheaper than list expansion; on wide DAGs the
//! k·n label matrix dwarfs the 1994 engines' successor lists.
//!
//! Cyclic inputs are condensed first with tc-graph's Tarjan SCC pass,
//! mirroring the study's §1 framing. The index persists through any
//! [`tc_storage::Pager`] — in the engine that is the buffer pool, so
//! building and querying the index are traced, metered,
//! fault-injectable storage workloads exactly like the eight study
//! algorithms (`Algorithm::ReachIndex` in tc-core).
//!
//! # Example
//!
//! ```
//! use tc_reach::{NullMeter, ReachIndex};
//! use tc_graph::Graph;
//! use tc_storage::DiskSim;
//! use tc_trace::Tracer;
//!
//! let g = Graph::from_arcs(4, [(0, 1), (1, 2), (0, 3)]);
//! let mut disk = DiskSim::new();
//! let idx =
//!     ReachIndex::build(&mut disk, &g, &Tracer::disabled(), &mut NullMeter).unwrap();
//! assert!(idx.reach_mem(0, 2));
//! assert!(!idx.reach_mem(3, 1));
//! assert!(idx.width() >= 2); // at least two chains cover the fork
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod index;

pub use chain::ChainDecomposition;
pub use index::{LabelMatrix, NullMeter, ReachIndex, ReachMeter};

// A frozen snapshot shares one `ReachIndex` among all serving sessions
// behind an `Arc`; its query methods take `&self`, so the whole index
// must stay plain shareable data. Checked at compile time.
const _: fn() = || {
    fn sendable<T: Send>() {}
    fn shareable<T: Sync>() {}
    sendable::<ReachIndex>();
    shareable::<ReachIndex>();
    shareable::<ChainDecomposition>();
    shareable::<LabelMatrix>();
};
