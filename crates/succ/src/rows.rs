//! A set of `(source, successor)` tuples kept as rows: the successor
//! column of a sorted base list with its row offsets, never copied, plus
//! a dense bit row for each source that has been written to.
//!
//! Dynamic maintenance reads the whole materialized closure but changes
//! only the rows of the changed arcs' ancestors. [`TupleRows`] makes the
//! cost follow the change: an untouched row is read straight from the
//! base column, the first effective write to a row turns it into a
//! [`BitRow`] of `n` bits, and the result is read back in ascending
//! order — untouched rows straight from the base, touched rows off their
//! bits. Whole rows move through a caller's scratch [`BitRow`]:
//! [`TupleRows::or_row_into`] unions a row into it (word-parallel when
//! the row is written) and [`TupleRows::set_row`] stores it back, which
//! is a write only if the row differs. Memory beyond the base list is
//! `n / 8` bytes per touched row.

use tc_graph::BitRow;

/// Marks a source whose row has not been written to.
const UNTOUCHED: u32 = u32::MAX;

/// A tuple set over `n` nodes: the successor column of a sorted base
/// list plus the rows written since.
#[derive(Clone, Debug)]
pub struct TupleRows {
    /// Successors of the base list, in list order.
    base: Vec<u32>,
    /// Row `s` of the base is `base[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    /// Per source: its index in `dense`, or [`UNTOUCHED`].
    slot: Vec<u32>,
    dense: Vec<BitRow>,
}

impl TupleRows {
    /// The set whose row `s` is `column[offsets[s]..offsets[s + 1]]`, over
    /// `offsets.len() - 1` nodes. The offsets are taken as given: the
    /// caller has checked that every row ascends strictly and stays
    /// below `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` starts at 0 and ends at `column.len()`.
    pub fn from_rows(offsets: Vec<u32>, column: Vec<u32>) -> TupleRows {
        assert!(
            offsets.first() == Some(&0)
                && offsets.last().map(|&e| e as usize) == Some(column.len()),
            "row offsets do not cover the column"
        );
        TupleRows {
            slot: vec![UNTOUCHED; offsets.len() - 1],
            base: column,
            offsets,
            dense: Vec::new(),
        }
    }

    /// Number of nodes (sources and successors range over `0..n`).
    fn n(&self) -> usize {
        self.slot.len()
    }

    fn base_row(&self, src: u32) -> &[u32] {
        let s = src as usize;
        &self.base[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    fn dense_row(&self, src: u32) -> Option<&BitRow> {
        match self.slot[src as usize] {
            UNTOUCHED => None,
            i => Some(&self.dense[i as usize]),
        }
    }

    /// Whether the row of `src` has been written to.
    pub fn is_written(&self, src: u32) -> bool {
        self.slot[src as usize] != UNTOUCHED
    }

    /// Number of successors of `src`.
    pub fn row_len(&self, src: u32) -> usize {
        match self.dense_row(src) {
            Some(bits) => bits.count_ones(),
            None => self.base_row(src).len(),
        }
    }

    /// Adds the successors of `src` to `acc`, a row over the same `n`.
    pub fn or_row_into(&self, src: u32, acc: &mut BitRow) {
        match self.dense_row(src) {
            Some(bits) => acc.union_with(bits),
            None => {
                for &dst in self.base_row(src) {
                    acc.set(dst);
                }
            }
        }
    }

    /// Makes `bits` the successors of `src`; returns `true` if the row
    /// changed. Setting a row to what it holds is not a write.
    pub fn set_row(&mut self, src: u32, bits: &BitRow) -> bool {
        let same = match self.dense_row(src) {
            Some(row) => row == bits,
            None => {
                let base = self.base_row(src);
                bits.count_ones() == base.len() && base.iter().all(|&dst| bits.contains(dst))
            }
        };
        if !same {
            if self.slot[src as usize] == UNTOUCHED {
                self.slot[src as usize] = self.dense.len() as u32;
                self.dense.push(BitRow::new(self.n()));
            }
            self.dense[self.slot[src as usize] as usize].copy_from(bits);
        }
        !same
    }

    /// The successor column of the set as it is now — the successors of
    /// source 0, then of source 1, and so on, each row ascending — handed
    /// to `sink` a slice at a time: each run of untouched rows is one
    /// slice of the base column, each written row one slice read off its
    /// bits.
    pub fn column_runs<E>(&self, mut sink: impl FnMut(&[u32]) -> Result<(), E>) -> Result<(), E> {
        let n = self.n();
        let mut row: Vec<u32> = Vec::new();
        let mut src = 0;
        while src < n {
            let written = (src..n).find(|&s| self.slot[s] != UNTOUCHED).unwrap_or(n);
            let run = self.offsets[src] as usize..self.offsets[written] as usize;
            if !run.is_empty() {
                sink(&self.base[run])?;
            }
            if written < n {
                row.clear();
                row.extend(self.dense[self.slot[written] as usize].ones());
                if !row.is_empty() {
                    sink(&row)?;
                }
            }
            src = written + 1;
        }
        Ok(())
    }

    /// Tuples in the set but not in the base, and tuples in the base but
    /// no longer in the set: `(inserted, removed)`.
    pub fn delta(&self) -> (u64, u64) {
        let (mut inserted, mut removed) = (0u64, 0u64);
        for src in (0..self.n() as u32).filter(|&src| self.is_written(src)) {
            let bits = &self.dense[self.slot[src as usize] as usize];
            let base = self.base_row(src);
            let kept = base.iter().filter(|&&dst| bits.contains(dst)).count();
            inserted += (bits.count_ones() - kept) as u64;
            removed += (base.len() - kept) as u64;
        }
        (inserted, removed)
    }

    /// The row offsets of the set as it is now, in the form
    /// [`TupleRows::from_rows`] takes: `n + 1` entries, row `s` of
    /// [`TupleRows::column_runs`]' column at `offsets[s]..offsets[s + 1]`.
    pub fn row_offsets(&self) -> Vec<u32> {
        let mut offsets = Vec::with_capacity(self.n() + 1);
        let mut end = 0u32;
        offsets.push(end);
        for src in 0..self.n() as u32 {
            end += self.row_len(src) as u32;
            offsets.push(end);
        }
        offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(n: usize, ids: &[u32]) -> BitRow {
        let mut row = BitRow::new(n);
        for &v in ids {
            row.set(v);
        }
        row
    }

    fn runs(rows: &TupleRows) -> Vec<Vec<u32>> {
        let mut runs = Vec::new();
        rows.column_runs(|run| {
            runs.push(run.to_vec());
            Ok::<(), ()>(())
        })
        .unwrap();
        runs
    }

    fn written(rows: &TupleRows) -> Vec<u32> {
        (0..rows.n() as u32)
            .filter(|&s| rows.is_written(s))
            .collect()
    }

    #[test]
    fn reads_do_not_densify_and_noop_writes_do_not_either() {
        // Rows 0 = {1, 2}, 1 = {}, 2 = {3}, 3 = {} over 4 nodes.
        let mut rows = TupleRows::from_rows(vec![0, 2, 2, 3, 3], vec![1, 2, 3]);
        let mut acc = BitRow::new(4);
        rows.or_row_into(0, &mut acc);
        assert_eq!(acc, bits(4, &[1, 2]));
        assert_eq!((rows.row_len(0), rows.row_len(1)), (2, 0));
        assert!(!rows.set_row(0, &bits(4, &[1, 2])), "already held");
        assert!(!rows.set_row(1, &bits(4, &[])), "already empty");
        assert!(written(&rows).is_empty());
        assert!(rows.set_row(0, &bits(4, &[2])) && rows.set_row(3, &bits(4, &[0])));
        assert_eq!(written(&rows), [0, 3]);
        assert!(
            !rows.set_row(3, &bits(4, &[0])),
            "a written row is compared too"
        );
        assert_eq!(runs(&rows).concat(), [2, 3, 0]);
        assert_eq!(rows.delta(), (1, 1));
        assert_eq!(rows.row_offsets(), [0, 1, 1, 2, 3]);
    }

    #[test]
    fn column_runs_are_the_rows_in_order_in_as_few_slices_as_rows_allow() {
        // Rows 0, 3 and 6 are empty: first, middle and last.
        let mut rows =
            TupleRows::from_rows(vec![0, 0, 2, 3, 3, 6, 7, 7], vec![2, 5, 0, 1, 2, 3, 6]);
        assert_eq!(runs(&rows), [[2, 5, 0, 1, 2, 3, 6]], "untouched: one slice");
        // An empty row gains a tuple, a row in the middle loses all of
        // its own, the last row gains one.
        assert!(rows.set_row(0, &bits(7, &[4])));
        assert!(rows.set_row(2, &bits(7, &[])));
        assert!(rows.set_row(6, &bits(7, &[0])));
        assert_eq!(
            runs(&rows),
            [vec![4], vec![2, 5], vec![1, 2, 3, 6], vec![0]]
        );
        assert_eq!(rows.row_offsets(), [0, 1, 3, 3, 3, 6, 7, 8]);
        let failed = rows.column_runs(|run| {
            if run == [2, 5] {
                Err(run.len())
            } else {
                Ok(())
            }
        });
        assert_eq!(failed, Err(2), "the sink's error stops the walk");
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn offsets_that_stop_short_of_the_column_are_refused() {
        TupleRows::from_rows(vec![0, 1, 2], vec![1, 0, 1]);
    }
}
