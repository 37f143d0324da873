//! `tc-det` — the determinism toolkit of the transitive-closure study.
//!
//! The paper's methodology (and this reproduction's value) rests on
//! *bit-reproducible* experiments: the same seed must generate the same
//! DAG workload and the same page-I/O counts on every machine, forever.
//! External crates version-drift and resolve against a registry; this
//! crate has **zero dependencies** and pins every random bit the
//! workspace consumes. It provides three small pieces:
//!
//! * [`rng`] — a seeded PRNG: SplitMix64 seed expansion feeding
//!   xoshiro256++, with a `rand`-flavoured API ([`Rng::from_seed`],
//!   [`Rng::random_range`], [`Rng::shuffle`]). Replaces `rand`.
//! * [`check`] — a mini property-testing harness: seeded case loop,
//!   tunable case count (`TC_DET_CASES`), greedy shrinking and
//!   failing-seed replay (`TC_DET_SEED`). Replaces `proptest`.
//! * [`par`] — the workspace's one worker pool, [`run_indexed`]: jobs
//!   drain an atomic cursor on scoped threads, results come back in
//!   index order, the lowest-index error wins. The experiment grid and
//!   the serve loop both run on it.
//!
//! ## Seeding conventions
//!
//! * Workload generators take an explicit `u64` seed; the paper's 5
//!   instances per graph family use seeds `1..=5`.
//! * Derived streams (e.g. back-arc injection on top of a generated DAG)
//!   use `seed ^ CONSTANT` or [`rng::cell_seed`], never the same stream.
//! * Anything that perturbs a simulation result must flow from one of
//!   these seeds — wall-clock time and addresses must never leak into
//!   simulated metrics.
//!
//! ## Cell seeding (parallel experiment grids)
//!
//! The experiment harness decomposes sweeps into independent *cells*
//! (one graph instance × source set × algorithm × config each) and may
//! execute them on any number of worker threads. Randomness consumed
//! inside a cell must therefore be a pure function of the cell's
//! *coordinates*, never of scheduling order:
//!
//! * Derive the cell's seed with [`rng::cell_seed`]`(STREAM, &coords)`,
//!   where `STREAM` is a per-purpose constant and `coords` the cell's
//!   canonical coordinates, then start a fresh [`Rng::from_seed`].
//! * Never draw from a generator shared *across* cells — draw order
//!   would then encode the (nondeterministic) execution interleaving.
//!   One generator is fine *within* one cell, where consumption is
//!   sequential.
//!
//! Under this convention, and because [`run_indexed`] places each result
//! by its cell's index, a sweep's results are bit-identical at any
//! worker count, which is what `tests/parallel_determinism.rs` and the
//! CI `parallel-matrix` job enforce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod par;
pub mod rng;
pub mod zipf;

pub use check::Checker;
pub use par::run_indexed;
pub use rng::{cell_seed, splitmix64, Rng};
pub use zipf::Zipf;
