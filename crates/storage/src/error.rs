//! Error types for the storage substrate.

use crate::page::PageId;
use std::fmt;

/// Errors raised by the simulated disk, page layouts and file structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page id did not refer to an allocated page.
    PageOutOfBounds(PageId),
    /// A file id did not refer to a created file.
    UnknownFile(u32),
    /// A slot/block offset within a page was out of range for its layout.
    SlotOutOfBounds {
        /// The offending slot or block index.
        slot: usize,
        /// The layout's capacity.
        capacity: usize,
    },
    /// An operation needed a free page slot on a full structure.
    PageFull(PageId),
    /// The buffer pool (or another pager) could not make room because every
    /// frame is pinned.
    AllFramesPinned,
    /// A page was requested through a pager with an unexpected file kind
    /// (indicates a bookkeeping bug in a caller).
    WrongFileKind {
        /// Kind the caller expected.
        expected: &'static str,
        /// Kind actually recorded for the page.
        actual: &'static str,
    },
    /// Input to a bulk operation violated its ordering contract
    /// (e.g. a clustered bulk load with unsorted tuples).
    UnsortedInput,
    /// The external sort was configured with too little working memory.
    InsufficientSortMemory {
        /// Pages made available.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// A page transfer attempt failed transiently (injected by a
    /// [`crate::fault::FaultPlan`]). The store retries it internally;
    /// a caller sees [`StorageError::RetriesExhausted`] if it never
    /// clears.
    TransientIo {
        /// The page whose transfer failed.
        pid: PageId,
        /// Whether the failed attempt was a write.
        write: bool,
    },
    /// A page is permanently unreadable (injected permanent media fault).
    PermanentFault(PageId),
    /// A page image failed checksum verification: the stored bytes do not
    /// match the checksum recorded at write time (silent corruption,
    /// detected rather than absorbed).
    ChecksumMismatch {
        /// The corrupted page.
        pid: PageId,
        /// Checksum recorded when the page was last written intact.
        stored: u64,
        /// Checksum of the bytes actually read back.
        computed: u64,
    },
    /// Every page of a file read back intact, but together they are not
    /// what the file is defined to hold (a closure row that does not
    /// ascend, a successor outside the graph, fewer values than the row
    /// table addresses). The bytes were written that way: by a bug, or
    /// by something other than this program.
    CorruptFile {
        /// The file whose contents are wrong.
        file: u32,
        /// The condition that does not hold.
        what: &'static str,
    },
    /// A transient fault did not clear within the store's attempt
    /// budget; the operation is abandoned.
    RetriesExhausted {
        /// The page whose transfers kept failing.
        pid: PageId,
        /// Attempts made (first try included).
        attempts: u32,
    },
    /// A query named a node the graph does not have (a source id ≥ the
    /// node count); refused before any page is touched.
    UnknownNode {
        /// The id the query named.
        node: u32,
        /// The graph's node count.
        n: usize,
    },
    /// The store was detached from its database (taken and not yet
    /// restored) when an operation needed it.
    DiskDetached,
    /// A mutation (write, allocation, file drop) was attempted on a
    /// read-only store — a frozen snapshot serves queries only; updates
    /// go to the live database and are published as a *new* snapshot.
    ReadOnlyStore,
    /// A real-I/O storage backend failed at the operating-system level
    /// (open, read, write, fsync, rename). Carries the failing operation
    /// and the OS error text; distinct from the *data* corruption errors
    /// above, which mean the bytes came back but were wrong.
    Backend {
        /// The backend operation that failed (e.g. `"open segment"`).
        op: &'static str,
        /// Operating-system error description.
        detail: String,
    },
    /// An internal bookkeeping invariant was violated — indicates a bug
    /// in the storage layer itself, reported as a typed error instead of
    /// a panic so I/O paths stay panic-free.
    Internal(&'static str),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageOutOfBounds(pid) => {
                write!(f, "page {pid:?} is not allocated")
            }
            StorageError::UnknownFile(id) => write!(f, "file {id} does not exist"),
            StorageError::SlotOutOfBounds { slot, capacity } => {
                write!(f, "slot {slot} out of bounds for capacity {capacity}")
            }
            StorageError::PageFull(pid) => write!(f, "page {pid:?} is full"),
            StorageError::AllFramesPinned => {
                write!(f, "cannot evict: all buffer frames are pinned")
            }
            StorageError::WrongFileKind { expected, actual } => {
                write!(f, "expected a {expected} page but found {actual}")
            }
            StorageError::UnsortedInput => {
                write!(f, "bulk-loaded tuples must be sorted on the clustering key")
            }
            StorageError::InsufficientSortMemory { got, need } => {
                write!(f, "external sort needs at least {need} pages, got {got}")
            }
            StorageError::TransientIo { pid, write } => {
                let dir = if *write { "write" } else { "read" };
                write!(f, "transient {dir} failure on page {pid:?}")
            }
            StorageError::PermanentFault(pid) => {
                write!(f, "page {pid:?} is permanently unreadable")
            }
            StorageError::ChecksumMismatch {
                pid,
                stored,
                computed,
            } => write!(
                f,
                "page {pid:?} is corrupted: stored checksum {stored:#018X}, read back {computed:#018X}"
            ),
            StorageError::CorruptFile { file, what } => {
                write!(f, "file {file} is corrupt: {what}")
            }
            StorageError::RetriesExhausted { pid, attempts } => write!(
                f,
                "page {pid:?} still failing after {attempts} attempts; giving up"
            ),
            StorageError::UnknownNode { node, n } => {
                write!(f, "node {node} is not in the graph (it has {n} nodes)")
            }
            StorageError::DiskDetached => {
                write!(f, "the simulated disk is detached from the database")
            }
            StorageError::ReadOnlyStore => {
                write!(
                    f,
                    "store is read-only (a frozen snapshot serves queries, not writes)"
                )
            }
            StorageError::Backend { op, detail } => {
                write!(f, "storage backend failed to {op}: {detail}")
            }
            StorageError::Internal(what) => {
                write!(f, "internal storage invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenience alias used throughout the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;
