//! The paged successor-list store.
//!
//! After the restructuring phase, the study's algorithms operate on
//! *successor lists* stored in the paper's page format: 2048-byte pages of
//! 30 blocks × 15 entries (§5.1), with sign-tagged entries (end-of-list
//! markers for flat lists, parent markers for spanning trees). This crate
//! implements that store over the buffer pool:
//!
//! * [`SuccStore`] — per-node block chains, intra- and inter-list
//!   clustering, block allocation with pluggable **list replacement
//!   policies** ([`ListPolicy`]) that decide what happens when a list
//!   outgrows its page ("the page must be split", §5.1);
//! * [`ListCursor`] — page-batched sequential readers charging I/O
//!   through the pool, copying a list's stored words for the engines to
//!   decode;
//! * [`NodeBitVec`] — the paper's bit-vector duplicate elimination, which
//!   it found to cost under 6% of CPU (§6.2), kept as a generation-stamped
//!   set with an O(1) reset;
//! * [`tree`] — the successor spanning-tree encoding (parent stored once,
//!   negated, followed by its children) and its skip-union, plus the
//!   special-node predecessor trees of Compute_Tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod cursor;
pub mod policy;
pub mod store;
pub mod tree;

pub use bitvec::NodeBitVec;
pub use cursor::ListCursor;
pub use policy::ListPolicy;
pub use store::{SuccStats, SuccStore};
