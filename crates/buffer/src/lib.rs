//! Buffer manager for the transitive-closure study.
//!
//! The paper's configuration (§5.1) is "determined by the size of the
//! buffer pool (M) and the list and page replacement policies"; buffer
//! sizes of 10, 20 and 50 pages are studied and page I/O recorded by "the
//! simulated buffer manager" is the primary cost metric.
//!
//! [`BufferPool`] implements that manager over any
//! [`tc_storage::PageStore`] backend — the simulated counting disk or
//! the real file-backed store: at most `M` frames, page *pinning* (used
//! by the Hybrid algorithm to hold its diagonal block resident), dirty
//! tracking with write-back on eviction, and pluggable page replacement
//! policies ([`policy`]). Every logical page request is counted; misses
//! and write-backs become physical I/O on the wrapped store.
//!
//! # Example
//!
//! ```
//! use tc_buffer::{BufferPool, PagePolicy};
//! use tc_storage::{DiskSim, FileKind, Page, PageStore, Pager};
//!
//! let mut disk = DiskSim::new();
//! let file = disk.new_file(FileKind::Temp);
//! let pid = disk.alloc(file).unwrap();
//! let mut pool = BufferPool::new(disk, 4, PagePolicy::Lru);
//! pool.with_page_mut(pid, |p: &mut Page| p.put_u32(0, 1)).unwrap();
//! pool.with_page(pid, |p: &Page| assert_eq!(p.get_u32(0), 1)).unwrap();
//! assert_eq!(pool.stats().hits, 1); // second access hit the pool
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod policy;
pub mod pool;

pub use policy::PagePolicy;
pub use pool::BufferPool;
/// The pool's counters; defined beside the rest of the cost-metric
/// ledger in `tc-trace`.
pub use tc_trace::BufferStats;

// A serving session owns one pool and migrates with it between worker
// threads; `PageStore: Send` plus policies of plain owned data must keep
// the whole pool `Send`, checked here at compile time.
const _: fn() = || {
    fn sendable<T: Send>() {}
    sendable::<BufferPool>();
};
