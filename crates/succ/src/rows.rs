//! A set of `(source, successor)` tuples kept as rows: the successor
//! column of a sorted base list with its row offsets, never copied, plus
//! a dense bit row for each source that has been written to.
//!
//! Dynamic maintenance reads the whole materialized closure but changes
//! only the rows of the changed arcs' ancestors. [`TupleRows`] makes the
//! cost follow the change: membership in an untouched row is a binary
//! search in the base column, the first effective write to a row turns
//! it into a [`BitRow`] of `n` bits, and the result is read back in
//! ascending order — untouched rows straight from the base, touched rows
//! off their bits. Whole rows move through a caller's scratch [`BitRow`]:
//! [`TupleRows::or_row_into`] unions a row into it (word-parallel when
//! the row is written) and [`TupleRows::set_row`] stores it back, which
//! is a write only if the row differs. Memory beyond the base list is
//! `n / 8` bytes per touched row.

use crate::bitvec::{BitRow, Ones};

/// A `(source, successor)` tuple.
pub type Tuple = (u32, u32);

/// Marks a source whose row has not been written to.
const UNTOUCHED: u32 = u32::MAX;

/// The row offsets of `tuples` over `n` sources: row `s` is
/// `tuples[offsets[s] as usize..offsets[s + 1] as usize]`, so the
/// result has `n + 1` entries.
///
/// # Panics
///
/// Panics unless `tuples` is strictly ascending and every id is below
/// `n` — the closure files this is built for are written that way, so a
/// violation is a bug in the writer, and every row lookup relies on it.
pub fn row_offsets(n: usize, tuples: &[Tuple]) -> Vec<u32> {
    assert!(
        tuples.windows(2).all(|w| w[0] < w[1]),
        "tuple list is not strictly ascending"
    );
    let mut offsets = vec![0u32; n + 1];
    for &(src, dst) in tuples {
        assert!((dst as usize) < n, "tuple ({src}, {dst}) outside {n} nodes");
        offsets[src as usize + 1] += 1;
    }
    for s in 0..n {
        offsets[s + 1] += offsets[s];
    }
    offsets
}

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
    /// The set holding exactly `base`, which must be strictly ascending
    /// with every id below `n` (see [`row_offsets`]).
    pub fn new(n: usize, base: &[Tuple]) -> TupleRows {
        TupleRows::from_rows(row_offsets(n, base), base.iter().map(|t| t.1).collect())
    }

    /// The set whose row `s` is `column[offsets[s]..offsets[s + 1]]`, over
    /// `offsets.len() - 1` nodes. The offsets are taken as given: the
    /// caller has checked that every row ascends strictly and stays
    /// below `n`, as [`row_offsets`] would have.
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
    pub fn n(&self) -> usize {
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

    /// The bit row of `src`, filled from the base on first use.
    fn densify(&mut self, src: u32) -> &mut BitRow {
        if self.slot[src as usize] == UNTOUCHED {
            let mut bits = BitRow::new(self.n());
            for &dst in self.base_row(src) {
                bits.set(dst);
            }
            self.slot[src as usize] = self.dense.len() as u32;
            self.dense.push(bits);
        }
        &mut self.dense[self.slot[src as usize] as usize]
    }

    /// Whether `(src, dst)` is in the set.
    #[inline]
    pub fn contains(&self, src: u32, dst: u32) -> bool {
        match self.dense_row(src) {
            Some(bits) => bits.contains(dst),
            None => self.base_row(src).binary_search(&dst).is_ok(),
        }
    }

    /// Adds `(src, dst)`; returns `true` if it was absent.
    pub fn insert(&mut self, src: u32, dst: u32) -> bool {
        !self.contains(src, dst) && self.densify(src).set(dst)
    }

    /// Removes `(src, dst)`; returns `true` if it was present.
    pub fn remove(&mut self, src: u32, dst: u32) -> bool {
        self.contains(src, dst) && self.densify(src).unset(dst)
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

    /// The successors of `src`, ascending.
    pub fn row(&self, src: u32) -> Row<'_> {
        match self.dense_row(src) {
            Some(bits) => Row::Dense(bits.ones()),
            None => Row::Base(self.base_row(src).iter()),
        }
    }

    /// Every tuple of the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.n() as u32).flat_map(move |src| self.row(src).map(move |dst| (src, dst)))
    }

    /// The successor column of the set as it is now — the second
    /// components of [`TupleRows::iter`], in order — handed to `sink` a
    /// slice at a time: each run of untouched rows is one slice of the
    /// base column, each written row one slice read off its bits.
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

    /// The sources whose row has been written to, ascending.
    pub fn touched(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.n() as u32).filter(move |&src| self.is_written(src))
    }

    /// Tuples in the set but not in the base, and tuples in the base but
    /// no longer in the set: `(inserted, removed)`.
    pub fn delta(&self) -> (u64, u64) {
        let (mut inserted, mut removed) = (0u64, 0u64);
        for src in self.touched() {
            let bits = &self.dense[self.slot[src as usize] as usize];
            let base = self.base_row(src);
            let kept = base.iter().filter(|&&dst| bits.contains(dst)).count();
            inserted += (bits.count_ones() - kept) as u64;
            removed += (base.len() - kept) as u64;
        }
        (inserted, removed)
    }

    /// The row offsets of the set as it is now — [`row_offsets`] of
    /// [`TupleRows::iter`], without walking the tuples.
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

/// The successors of one source, ascending.
#[derive(Clone, Debug)]
pub enum Row<'a> {
    /// An untouched row, read from the base column.
    Base(std::slice::Iter<'a, u32>),
    /// A written row, read off its bits.
    Dense(Ones<'a>),
}

impl Iterator for Row<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            Row::Base(column) => column.next().copied(),
            Row::Dense(ones) => ones.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_partition_the_list() {
        let tuples = [(0, 1), (0, 2), (2, 3), (5, 0)];
        assert_eq!(row_offsets(6, &tuples), [0, 2, 2, 3, 3, 3, 4]);
        assert_eq!(row_offsets(0, &[]), [0]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_base_is_refused() {
        row_offsets(4, &[(1, 2), (0, 3)]);
    }

    #[test]
    fn reads_do_not_densify_and_noop_writes_do_not_either() {
        let base = [(0, 1), (0, 2), (2, 3)];
        let mut rows = TupleRows::new(4, &base);
        assert!(rows.contains(0, 2) && !rows.contains(1, 0));
        assert!(!rows.insert(0, 1), "already present");
        assert!(!rows.remove(1, 3), "already absent");
        assert_eq!(rows.touched().count(), 0);
        assert!(rows.remove(0, 1) && rows.insert(3, 0));
        assert_eq!(rows.touched().collect::<Vec<_>>(), [0, 3]);
        assert_eq!(rows.iter().collect::<Vec<_>>(), [(0, 2), (2, 3), (3, 0)]);
        assert_eq!(rows.delta(), (1, 1));
        assert_eq!(rows.row_offsets(), [0, 1, 1, 2, 3]);
    }

    #[test]
    fn column_runs_are_the_successors_of_iter_in_as_few_slices_as_rows_allow() {
        // Rows 0, 3 and 6 are empty: first, middle and last.
        let base = [(1, 2), (1, 5), (2, 0), (4, 1), (4, 2), (4, 3), (5, 6)];
        let mut rows = TupleRows::new(7, &base);
        let runs = |rows: &TupleRows| {
            let mut runs: Vec<Vec<u32>> = Vec::new();
            rows.column_runs(|run| {
                runs.push(run.to_vec());
                Ok::<(), ()>(())
            })
            .unwrap();
            runs
        };
        assert_eq!(runs(&rows), [[2, 5, 0, 1, 2, 3, 6]], "untouched: one slice");
        // An empty row gains a tuple, a row in the middle loses all of
        // its own, the last row gains one.
        assert!(rows.insert(0, 4) && rows.remove(2, 0) && rows.insert(6, 0));
        assert_eq!(
            runs(&rows),
            [vec![4], vec![2, 5], vec![1, 2, 3, 6], vec![0]]
        );
        let column: Vec<u32> = rows.iter().map(|t| t.1).collect();
        assert_eq!(runs(&rows).concat(), column);
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
