//! Experiment harness: regenerates every table and figure of the
//! evaluation section (paper §5–§6).
//!
//! Each experiment lives in [`experiments`] and is exposed both as a
//! library function returning its report fragment as a string and
//! through one binary: `--bin section <name>` runs one section
//! (`cargo run -p tc-bench --release --bin section -- table2`), and
//! `--bin section all` runs the full suite and emits an
//! `EXPERIMENTS.md`-ready report.
//!
//! # Deterministic parallel scheduling
//!
//! Every section decomposes into independent *cells* (one
//! database-build-and-run each) on a shared [`experiments::Grid`]. Cells
//! execute across `--jobs N` worker threads (default: available
//! parallelism) and results are reassembled in canonical cell
//! order, so a section's report fragment is **byte-identical** at any
//! thread count — `--jobs 1` and `--jobs 8` produce the same bytes.
//! Cell seeds are pure functions of cell coordinates
//! ([`tc_det::cell_seed`]), never drawn from a shared RNG, so scheduling
//! order cannot leak into the data.
//!
//! The paper averages every data point over 5 generated graph instances
//! per family and, for selections, 5 source sets per instance. That full
//! matrix takes a while; the harness defaults to 2×2 and honours
//!
//! ```text
//! cargo run --release -p tc-bench --bin section -- all --full
//! ```
//!
//! (or `--instances 5 --sets 5 --jobs 4`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avg;
pub mod baseline;
pub mod corpus;
pub mod experiments;
pub mod opts;
pub mod table;

pub use avg::AvgMetrics;
pub use corpus::{build_graph, GraphFamily, FAMILIES, N_NODES};
pub use opts::ExpOpts;
pub use table::Table;
