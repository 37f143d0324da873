//! Graph workloads and characterization for the transitive-closure study.
//!
//! This crate is the in-memory graph layer: the paper's synthetic DAG
//! generator (§5.2), topological sorting, Tarjan SCC condensation (the
//! paper studies acyclic graphs because a cyclic input can be cheaply
//! condensed first — §1), transitive reduction, the novel *rectangle
//! model* of DAG shape (§5.3: node levels, height `H(G)`, width `W(G)`,
//! arc locality), and in-memory reference closures (per-node DFS, Warshall
//! and Warren bit-matrix algorithms) used as correctness oracles and to
//! compute the `|TC(G)|` column of Table 2.
//!
//! It is also the one home of dense bit sets over node ids
//! ([`bitmat`]): [`BitRow`], one set of ids, and [`BitMatrix`], `n` rows
//! of them. The oracles, the answer collector, JKB's source covers and
//! dynamic maintenance's closure rows all use these two.
//!
//! # Example
//!
//! ```
//! use tc_graph::{DagGenerator, RectangleModel, closure};
//!
//! // G6 from the paper: n = 2000, F = 5, l = 2000.
//! let g = DagGenerator::new(2000, 5.0, 2000).seed(1).generate();
//! assert!(g.is_acyclic());
//! let model = RectangleModel::of(&g);
//! // Height × width ≈ number of arcs (W = |G| / H by definition).
//! assert!((model.height * model.width - g.arc_count() as f64).abs() < 1.0);
//! let tc = closure::dfs_closure(&g);
//! assert!(tc.pair_count() > g.arc_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmat;
pub mod closure;
pub mod gen;
pub mod graph;
pub mod magic;
pub mod model;
pub mod reduction;
pub mod scc;
pub mod topo;
pub mod update;

pub use bitmat::{BitMatrix, BitRow};
pub use gen::DagGenerator;
pub use graph::{Graph, NodeId};
pub use magic::MagicGraph;
pub use model::{ArcLocalityStats, RectangleModel};
pub use reduction::transitive_reduction;
pub use scc::{condensation, Condensation};
pub use topo::{reverse_topological_order, topological_order};
pub use update::{StreamKind, UpdateOp, UpdateStream};
