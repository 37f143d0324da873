//! The materialized closure's format, owned in one place.
//!
//! The paper drops a list's source once tuples become successor lists
//! (§5.1), and so does the closure file: a positional
//! [`tc_storage::ValueFile`] of successors — source 0's ascending, then
//! source 1's, and so on — each value in the bytes a node id below `n`
//! needs. Where a row starts is kept beside the file, `n + 1` offsets
//! (source `u`'s successors are values `rows[u]..rows[u + 1]`), and that
//! table is the only record of it: an off-by-one would read a
//! neighbour's successors, not fail. So one type, `ClosureFile`, holds
//! the file and its table together, and it is the only code that writes
//! or reads either:
//!
//! * it writes the file whole: from [`tc_graph::closure::dfs_closure`]'s
//!   matrix at build, and from the sweep's [`TupleRows`] after each
//!   batch, taking the table from what it wrote;
//! * it reads one row for a snapshot's `ptc`, and the whole file, in one
//!   pass, for `apply` and `tuples()`: the column is read through the
//!   pager, then the rows are walked once, sources ascending, each one
//!   checked — inside the table, strictly ascending, every successor
//!   below `n` — before it is handed to the caller's visitor. The bytes
//!   came back from a disk, so a violation is
//!   [`StorageError::CorruptFile`], never a panic.
//!
//! The table sits behind an `Arc`, so a freeze hands it to the snapshot
//! without copying it.

mod rows;

pub use rows::TupleRows;

use std::sync::Arc;
use tc_buffer::BufferPool;
use tc_graph::{BitMatrix, NodeId};
use tc_storage::{
    FileId, FileKind, PageStore, Pager, StorageError, StorageResult, ValueFile, ValueWriter,
};

/// The closure file and its row table.
#[derive(Clone, Debug)]
pub(crate) struct ClosureFile {
    /// The successor column, sources ascending, each row ascending.
    file: ValueFile,
    /// `n + 1` offsets: source `u`'s successors are values
    /// `rows[u]..rows[u + 1]` of `file`.
    rows: Arc<[u32]>,
}

impl ClosureFile {
    /// Loads the closure `matrix` holds — row `s` read off ascending is
    /// source `s`'s successors — into a fresh file on `disk`, one write
    /// per page, bypassing the buffer pool.
    pub(crate) fn load<S: PageStore + ?Sized>(
        disk: &mut S,
        matrix: &BitMatrix,
    ) -> StorageResult<ClosureFile> {
        let n = matrix.n();
        let mut successors: Vec<NodeId> = Vec::with_capacity(matrix.pair_count());
        let rows = std::iter::once(0)
            .chain((0..n as NodeId).map(|s| {
                successors.extend(matrix.ones(s));
                successors.len() as u32
            }))
            .collect();
        let file = ValueFile::bulk_load(disk, FileKind::Output, n as u64, &successors)?;
        Ok(ClosureFile { file, rows })
    }

    /// Nodes of the graph the closure is over.
    pub(crate) fn n(&self) -> usize {
        self.rows.len() - 1
    }

    /// Tuples in the closure.
    pub(crate) fn count(&self) -> usize {
        self.file.count()
    }

    /// Pages of the file.
    pub(crate) fn page_count(&self) -> usize {
        self.file.page_count()
    }

    /// The file id on the store.
    pub(crate) fn file_id(&self) -> FileId {
        self.file.file_id()
    }

    /// Source `u`'s successors, ascending: one request per page holding
    /// the row. A source outside the graph reaches nothing.
    pub(crate) fn row<P: Pager + ?Sized>(
        &self,
        pager: &mut P,
        u: NodeId,
    ) -> StorageResult<Vec<NodeId>> {
        let mut out = Vec::new();
        let u = u as usize;
        if u < self.n() {
            let (start, end) = (self.rows[u] as usize, self.rows[u + 1] as usize);
            self.file.read_range(pager, start, end, &mut out)?;
        }
        Ok(out)
    }

    /// Reads the whole file through `pager` and walks it once, sources
    /// ascending, handing each row to `visit` with its source after
    /// checking it: inside the file, strictly ascending, every successor
    /// below `n`. Returns the rows as read, for the sweep to write to.
    pub(crate) fn scan<P: Pager + ?Sized>(
        &self,
        pager: &mut P,
        mut visit: impl FnMut(NodeId, &[NodeId]),
    ) -> StorageResult<TupleRows> {
        const UNCOVERED: &str = "the row table does not cover the closure file";
        let n = self.n();
        let corrupt = |what| StorageError::CorruptFile {
            file: self.file.file_id().0,
            what,
        };
        if self.rows[0] != 0 || self.rows[n] as usize != self.file.count() {
            return Err(corrupt(UNCOVERED));
        }
        let mut column = Vec::new();
        self.file
            .read_range(pager, 0, self.file.count(), &mut column)?;
        for (u, ends) in self.rows.windows(2).enumerate() {
            let row = column
                .get(ends[0] as usize..ends[1] as usize)
                .ok_or_else(|| corrupt(UNCOVERED))?;
            // The least value the next successor may take.
            let mut next = 0;
            for &y in row {
                if y as usize >= n {
                    return Err(corrupt("a successor is not a node of the graph"));
                }
                if (y as usize) < next {
                    return Err(corrupt("a closure row is not strictly ascending"));
                }
                next = y as usize + 1;
            }
            visit(u as NodeId, row);
        }
        Ok(TupleRows::from_rows(self.rows.to_vec(), column))
    }

    /// Writes `rows` through `pool` as the file that replaces this one,
    /// and flushes it. This file is freed first, so the rewrite reuses
    /// whichever of its pages no synced catalog still gives it.
    pub(crate) fn rewrite(
        &self,
        pool: &mut BufferPool,
        rows: &TupleRows,
    ) -> StorageResult<ClosureFile> {
        pool.free_file(self.file.file_id())?;
        let mut out = ValueWriter::new(pool, FileKind::Output, self.n() as u64);
        rows.column_runs(|run| out.extend_from_slice(pool, run))?;
        let file = out.finish();
        pool.flush_file(file.file_id())?;
        Ok(ClosureFile {
            file,
            rows: rows.row_offsets().into(),
        })
    }
}

#[cfg(test)]
impl ClosureFile {
    /// The file, for tests that damage its pages.
    pub(crate) fn file(&self) -> &ValueFile {
        &self.file
    }

    /// Applies `edit` to the row table, for tests that damage it.
    pub(crate) fn edit_rows(&mut self, edit: impl FnOnce(&mut [u32])) {
        let mut rows = self.rows.to_vec();
        edit(&mut rows);
        self.rows = rows.into();
    }
}
