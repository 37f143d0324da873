//! Simulated paged storage substrate for the transitive-closure study.
//!
//! Dar and Ramakrishnan's SIGMOD '94 performance study measures *page I/O*
//! against a simulated disk and buffer manager. This crate provides that
//! disk: fixed-size 2048-byte pages ([`page::PAGE_SIZE`]), a page-granular
//! store with full I/O accounting ([`Store`]), file/extent
//! management tagged by [`FileKind`], byte-exact page layouts for the
//! paper's formats (8-byte tuples at 256 per page and 30-block
//! successor-list pages), positional value files (bare values in the
//! fewest whole bytes their file's bound needs, for what is read by
//! position rather than by key), clustered
//! relations that carry their own sparse index (a value file of each
//! data page's first key, [`ClusteredRelation`]), and an external merge
//! sort used to build inverse relations.
//!
//! There is one store, generic over the byte [`Medium`] it keeps page
//! images on: [`DiskSim`] holds them in memory (the paper's simulated
//! disk), [`FileStore`] in a real file with per-page CRCs and torn-write
//! recovery (select one with [`Backend`]), and [`FrozenStore`] reads a
//! shared immutable capture. Catalog, allocator, counters, fault hooks
//! and trace events are the store's, so they cannot differ by medium.
//! Everything above the store performs its page accesses through the
//! [`Pager`] trait (every [`PageStore`] is a `Pager` via a blanket impl)
//! so that the same access paths can run either directly against a store
//! (every access is a physical I/O) or through the buffer pool in the
//! `tc-buffer` crate (accesses hit the pool and only misses become
//! physical I/O). The paper's cost metrics fall directly out of the
//! counters maintained here and in the pool.
//!
//! # Example
//!
//! ```
//! use tc_storage::{DiskSim, FileKind, Pager, PageStore, RelationFile};
//!
//! let mut disk = DiskSim::new();
//! // A tiny relation: arcs of a graph as (source, destination) tuples,
//! // clustered on the source attribute.
//! let arcs = vec![(0, 1), (0, 2), (1, 2)];
//! let rel = RelationFile::bulk_load(&mut disk, FileKind::Relation, &arcs).unwrap();
//! assert_eq!(rel.tuple_count(), 3);
//! let scanned: Vec<_> = rel.scan(&mut disk).unwrap();
//! assert_eq!(scanned, arcs);
//! // Every page the scan touched was counted as a physical read.
//! assert!(disk.stats().reads > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod disk;
pub mod error;
pub mod extsort;
pub mod fault;
pub mod file_store;
pub mod frozen;
pub mod index;
pub mod layout;
pub mod medium;
pub mod page;
pub mod pager;
pub mod relation;
pub mod store;
pub mod values;

pub use disk::{DiskSim, DiskStats, FileId, FileKind, Mem, MS_PER_IO};
pub use error::{StorageError, StorageResult};
pub use extsort::external_sort;
pub use fault::{FaultConfig, FaultKind, FaultPlan, ScheduledFault};
pub use file_store::{FileStore, RecoveryReport, Segment, TempDir};
pub use file_store::{HEADER_SIZE as FILE_STORE_HEADER_SIZE, SLOT_SIZE as FILE_STORE_SLOT_SIZE};
pub use frozen::{Frozen, FrozenPageSet, FrozenStore};
pub use index::ClusteredRelation;
pub use layout::{
    SuccBlockRef, SuccEntry, SuccPage, SuccWord, TuplePage, ValuePage, BLOCKS_PER_PAGE,
    ENTRIES_PER_BLOCK, SUCCESSORS_PER_PAGE, TUPLES_PER_PAGE,
};
pub use medium::{Catalog, Medium};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pager::Pager;
pub use relation::{RelationFile, Tuple, TupleWriter};
pub use store::{Backend, PageStore, Store};
pub use values::{ValueFile, ValueWriter};
