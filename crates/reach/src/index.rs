//! The interval-label reachability index and its paged persistence.
//!
//! Given a chain decomposition of width k, the label of node `v` is the
//! k-vector `L[v][c]` = the minimum position on chain `c` of any node
//! reachable from `v` (including `v` itself), or the longest chain's
//! length ([`ChainDecomposition::longest`]) when `v` reaches nothing on
//! chain `c`. Because every chain is a *path* of the DAG, reaching
//! position `p` on a chain means reaching every position `≥ p`, so
//!
//! ```text
//! reach(u, v)  ⇔  L[u][chain(v)] ≤ pos(v)
//! ```
//!
//! Every position lies below the longest chain's length, so "no label"
//! fails that test, loses every min-merge and needs no translation:
//! the matrix and the labels file hold the same values, and the file
//! declares one past that length as its bound. The study's graphs have
//! chains of a few dozen (G5) to about a hundred (G8) positions, so an
//! entry takes one byte.
//!
//! Labels are computed in one reverse-topological pass — each node's row
//! is the component-wise minimum of its children's rows plus its own
//! chain position — giving O(k·(n+m)) construction and O(k·n) space,
//! the Kritikakis/Tollis bound. The width parameter k is the rectangle
//! model's `W` in the narrow-DAG regime, which is what lets the §5.3
//! advisor predict when this index beats the 1994 engines.
//!
//! [`ReachIndex::build`] persists the decomposition and the labels in
//! two paged value files through any [`Pager`] (the buffer pool in the
//! engine; a snapshot's thawed capture, read straight, at freeze), so
//! construction and queries are charged page I/O exactly like the eight
//! study algorithms. It is the one writer of those files. Both are read
//! by position — the index is k·n integers, as in Kritikakis/Tollis — so
//! neither stores a key beside its values.
//!
//! The labels file is clustered for the access that dominates: a `path`
//! walk toward `v` tests `L[y][chain(v)]` for child after child `y`, so
//! the file is chain-major. Column `c` — entry `L[a][c]` of every
//! component `a` — is values `c·N..(c + 1)·N`, N the component count,
//! and a walk's lookups all fall in the pages of one column.
//! The in-memory [`LabelMatrix`] stays row-major, the shape its
//! recurrence is computed in.

use tc_graph::{condensation, Condensation, Graph, NodeId};
use tc_storage::{FileId, FileKind, Pager, StorageError, StorageResult, ValueFile, ValueWriter};
use tc_trace::{Event, Tracer};

use crate::chain::ChainDecomposition;

/// Logical-work accounting hooks for index construction. The engine
/// implements this on its cost-metric suite so every counted unit of
/// work keeps flowing through the `metrics ≡ replay(trace)` oracle;
/// standalone users can pass [`NullMeter`].
pub trait ReachMeter {
    /// One condensation arc examined (decomposition tail probe or label
    /// merge).
    fn arc_scanned(&mut self);
    /// One label-row union (a child row merged into its parent's).
    fn row_union(&mut self);
    /// `n` label entries read from a successor structure.
    fn entries_read(&mut self, n: u64);
}

/// Label columns transposed per pass over the rows when the labels file
/// is written: 16 `u32`s fill a 64-byte cache line.
const TRANSPOSE_BLOCK: usize = 16;

/// A [`ReachMeter`] that counts nothing.
pub struct NullMeter;

impl ReachMeter for NullMeter {
    fn arc_scanned(&mut self) {}
    fn row_union(&mut self) {}
    fn entries_read(&mut self, n: u64) {
        let _ = n;
    }
}

/// The in-memory label matrix: `k` entries per condensation component,
/// row-major, "no label" being the longest chain's length.
#[derive(Clone, Debug)]
pub struct LabelMatrix {
    k: usize,
    rows: Vec<u32>,
}

impl LabelMatrix {
    /// Computes all labels over `dag` (the condensation) in one reverse
    /// topological pass. Component ids of [`condensation`] are already
    /// topologically ordered (ancestors get smaller ids), so the pass is
    /// a simple descending id loop.
    pub fn compute<M: ReachMeter>(
        dag: &Graph,
        cd: &ChainDecomposition,
        meter: &mut M,
    ) -> LabelMatrix {
        let n = dag.n();
        let (k, none) = (cd.width(), cd.longest());
        let mut rows = vec![none; n * k];
        for v in (0..n).rev() {
            let vi = v * k;
            rows[vi + cd.chain_of[v] as usize] = cd.pos_of[v];
            for &w in dag.children(v as NodeId) {
                meter.arc_scanned();
                meter.row_union();
                meter.entries_read(k as u64);
                let wi = w as usize * k;
                debug_assert!(vi < wi, "condensation ids must be topological");
                let (lo, hi) = rows.split_at_mut(wi);
                let dst = &mut lo[vi..vi + k];
                // A branch-free min, so the merge vectorises.
                for (d, &s) in dst.iter_mut().zip(&hi[..k]) {
                    *d = (*d).min(s);
                }
            }
        }
        LabelMatrix { k, rows }
    }

    /// The width k (entries per row).
    pub fn width(&self) -> usize {
        self.k
    }

    /// The label row of component `v`.
    pub fn row(&self, v: NodeId) -> &[u32] {
        &self.rows[v as usize * self.k..(v as usize + 1) * self.k]
    }

    /// Number of finite (reachable) entries across all rows: those below
    /// `none`, the longest chain's length.
    fn finite_entries(&self, none: u32) -> u64 {
        self.rows.iter().filter(|&&p| p < none).count() as u64
    }
}

/// The persisted chain-decomposition reachability index over an
/// arbitrary (possibly cyclic) graph.
///
/// Construction condenses the input, decomposes the condensation DAG
/// into k concurrent chains, computes the interval labels, and writes
/// two positional [`ValueFile`]s through the supplied [`Pager`]:
///
/// * a **chains file** ([`FileKind::Index`]): one component per chain
///   position, chains concatenated in order (chain `c` starts at value
///   `chain_starts[c]`), each component id in the fewest whole bytes
///   that hold N − 1;
/// * a **labels file** ([`FileKind::SuccessorList`]): N label entries
///   per chain, N the component count, in chain order — the label
///   columns, entry `L[a][c]` at value `c·N + a`, each a position or the
///   longest chain's length `l`, so in the fewest whole bytes that hold
///   `l` (one byte while `l < 256`).
///
/// A reader computes the exact page range of what it wants from those
/// positions, so there is no key to store and no separate index file.
pub struct ReachIndex {
    cond: Condensation,
    cd: ChainDecomposition,
    labels: LabelMatrix,
    chains_file: ValueFile,
    labels_file: ValueFile,
    /// `chain_starts[c]` = position of chain `c`'s first entry in the
    /// chains file.
    chain_starts: Vec<usize>,
}

impl ReachIndex {
    /// Builds and persists the index for `graph`.
    pub fn build<P: Pager, M: ReachMeter>(
        pager: &mut P,
        graph: &Graph,
        tracer: &Tracer,
        meter: &mut M,
    ) -> StorageResult<ReachIndex> {
        let cond = condensation(graph);
        let cd = ChainDecomposition::of(&cond.graph, tracer, meter)
            .ok_or(StorageError::Internal("condensation is cyclic"))?;
        let labels = LabelMatrix::compute(&cond.graph, &cd, meter);

        let mut chain_starts = Vec::with_capacity(cd.width() + 1);
        let components = cond.component_count() as u64;
        let mut chains_w = ValueWriter::new(pager, FileKind::Index, components);
        let none = cd.longest();
        let mut labels_w = ValueWriter::new(pager, FileKind::SuccessorList, u64::from(none) + 1);
        let written = (|| {
            for chain in &cd.chains {
                chain_starts.push(chains_w.count());
                chains_w.extend_from_slice(pager, chain)?;
            }
            // The matrix is row-major; the file is its transpose, written
            // TRANSPOSE_BLOCK columns at a time, so that each pass over
            // the rows reads whole cache lines rather than one entry a
            // row.
            let (n, k) = (cond.component_count(), cd.width());
            let mut block = vec![none; TRANSPOSE_BLOCK.min(k) * n];
            for c0 in (0..k).step_by(TRANSPOSE_BLOCK) {
                let w = TRANSPOSE_BLOCK.min(k - c0);
                for (a, row) in labels.rows.chunks_exact(k).enumerate() {
                    for (j, &p) in row[c0..c0 + w].iter().enumerate() {
                        block[j * n + a] = p;
                    }
                }
                labels_w.extend_from_slice(pager, &block[..w * n])?;
            }
            Ok(())
        })();
        let (chains_file, labels_file) = (chains_w.finish(), labels_w.finish());
        if let Err(e) = written {
            // A half-written index is of no use: give its pages back
            // (best effort — the write error is the one to report).
            let _ = pager.free_file(chains_file.file_id());
            let _ = pager.free_file(labels_file.file_id());
            return Err(e);
        }
        let k = cd.width();
        tracer.emit(Event::LabelsBuilt {
            entries: (cond.component_count() * k) as u64,
            finite: labels.finite_entries(none),
        });

        Ok(ReachIndex {
            cond,
            cd,
            labels,
            chains_file,
            labels_file,
            chain_starts,
        })
    }

    /// The width parameter k.
    pub fn width(&self) -> usize {
        self.cd.width()
    }

    /// The condensation the index was built over.
    pub fn condensation(&self) -> &Condensation {
        &self.cond
    }

    /// The chain decomposition of the condensation DAG.
    pub fn decomposition(&self) -> &ChainDecomposition {
        &self.cd
    }

    /// The in-memory label matrix (rows indexed by component id).
    pub fn labels(&self) -> &LabelMatrix {
        &self.labels
    }

    /// Component id of an original node.
    pub fn component(&self, v: NodeId) -> NodeId {
        self.cond.component[v as usize]
    }

    /// Total label entries persisted (`components × k`).
    pub fn label_entries(&self) -> u64 {
        (self.cond.component_count() * self.cd.width()) as u64
    }

    /// Total chain entries persisted (one per component).
    pub fn chain_entries(&self) -> u64 {
        self.cond.component_count() as u64
    }

    /// The file ids of the persisted index (chains, labels) — for
    /// flushing or discarding through the pool.
    pub fn files(&self) -> [FileId; 2] {
        [self.chains_file.file_id(), self.labels_file.file_id()]
    }

    /// Reads the persisted label rows of components `comps` into `out`:
    /// k entries each, in chain order, row `i` for `comps[i]`. The file
    /// is chain-major, so this reads each column once, over the span
    /// from the least to the greatest of `comps`, and requests each
    /// label page at most once per chain it holds; `meter` is charged
    /// the entries read. A component past the last is refused.
    pub fn label_rows<P: Pager, M: ReachMeter>(
        &self,
        pager: &mut P,
        comps: &[NodeId],
        meter: &mut M,
        out: &mut Vec<u32>,
    ) -> StorageResult<()> {
        let (n, k) = (self.cond.component_count(), self.cd.width());
        out.clear();
        out.resize(comps.len() * k, self.cd.longest());
        let (Some(&lo), Some(&hi)) = (comps.iter().min(), comps.iter().max()) else {
            return Ok(());
        };
        let (lo, hi) = (lo as usize, hi as usize);
        if hi >= n {
            return Err(StorageError::SlotOutOfBounds {
                slot: hi,
                capacity: n,
            });
        }
        let mut column = Vec::with_capacity(hi + 1 - lo);
        for c in 0..k {
            column.clear();
            self.labels_file
                .read_range(pager, c * n + lo, c * n + hi + 1, &mut column)?;
            meter.entries_read(column.len() as u64);
            for (row, &a) in out.chunks_exact_mut(k).zip(comps) {
                row[c] = column[a as usize - lo];
            }
        }
        Ok(())
    }

    /// Reads the components at positions `from_pos..` of chain `c` from
    /// the persisted chains file into `out`, touching exactly the pages
    /// holding that suffix.
    pub fn chain_suffix<P: Pager>(
        &self,
        pager: &mut P,
        c: u32,
        from_pos: u32,
        out: &mut Vec<u32>,
    ) -> StorageResult<()> {
        out.clear();
        let len = self.cd.chains[c as usize].len();
        let from = from_pos as usize;
        if from >= len {
            return Ok(());
        }
        let start = self.chain_starts[c as usize] + from;
        let end = self.chain_starts[c as usize] + len;
        self.chains_file.read_range(pager, start, end, out)
    }

    /// Whether `u` reaches `v` by a non-empty path, answered from the
    /// *persisted* label entry `L[u][chain(v)]`: one pager request, for
    /// the one page of column `chain(v)` holding that entry, when `u`
    /// and `v` lie in different components, and none when they share
    /// one.
    pub fn reach<P: Pager>(&self, pager: &mut P, u: NodeId, v: NodeId) -> StorageResult<bool> {
        let (a, b) = (self.component(u), self.component(v));
        if a == b {
            return Ok(self.cond.is_cyclic(a));
        }
        let at = self.cd.chain_of[b as usize] as usize * self.cond.component_count() + a as usize;
        Ok(self.labels_file.get(pager, at)? <= self.cd.pos_of[b as usize])
    }

    /// Whether `u` reaches `v` by a non-empty path, answered from the
    /// in-memory label matrix (no I/O).
    pub fn reach_mem(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = (self.component(u), self.component(v));
        if a == b {
            return self.cond.is_cyclic(a);
        }
        self.labels.row(a)[self.cd.chain_of[b as usize] as usize] <= self.cd.pos_of[b as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::{closure, DagGenerator};
    use tc_storage::DiskSim;

    fn build(g: &Graph) -> (DiskSim, ReachIndex) {
        let mut disk = DiskSim::new();
        let idx = ReachIndex::build(&mut disk, g, &Tracer::disabled(), &mut NullMeter).unwrap();
        (disk, idx)
    }

    #[test]
    fn labels_match_dfs_closure_on_a_random_dag() {
        let g = DagGenerator::new(120, 3.0, 30).seed(9).generate();
        let (mut disk, idx) = build(&g);
        let tc = closure::dfs_closure(&g);
        for u in 0..g.n() as NodeId {
            for v in 0..g.n() as NodeId {
                let expect = tc.get(u, v);
                assert_eq!(idx.reach_mem(u, v), expect, "mem {u}->{v}");
                assert_eq!(idx.reach(&mut disk, u, v).unwrap(), expect, "disk {u}->{v}");
            }
        }
    }

    #[test]
    fn cyclic_graphs_condense_first() {
        // 0 <-> 1 cycle feeding 2; 3 isolated.
        let g = Graph::from_arcs(4, [(0, 1), (1, 0), (1, 2)]);
        let (mut disk, idx) = build(&g);
        assert!(idx.reach(&mut disk, 0, 0).unwrap(), "on a cycle: reflexive");
        assert!(idx.reach(&mut disk, 0, 1).unwrap());
        assert!(idx.reach(&mut disk, 1, 2).unwrap());
        assert!(!idx.reach(&mut disk, 2, 2).unwrap(), "trivial: irreflexive");
        assert!(!idx.reach(&mut disk, 3, 0).unwrap());
    }

    #[test]
    fn persisted_columns_equal_matrix_columns() {
        let g = DagGenerator::new(300, 4.0, 60).seed(4).generate();
        let (mut disk, idx) = build(&g);
        let n = idx.condensation().component_count();
        assert_eq!(idx.labels_file.count(), n * idx.width());
        for c in 0..idx.width() {
            for a in 0..n {
                let entry = idx.labels_file.get(&mut disk, c * n + a).unwrap();
                assert_eq!(entry, idx.labels().row(a as NodeId)[c], "L[{a}][{c}]");
            }
        }
        // Rows of a scattered subset, in the order asked for.
        let comps: Vec<NodeId> = (0..n as NodeId).rev().step_by(7).collect();
        let mut rows = Vec::new();
        idx.label_rows(&mut disk, &comps, &mut NullMeter, &mut rows)
            .unwrap();
        for (row, &a) in rows.chunks_exact(idx.width()).zip(&comps) {
            assert_eq!(row, idx.labels().row(a), "row {a}");
        }
        let past = idx.label_rows(&mut disk, &[n as NodeId], &mut NullMeter, &mut rows);
        assert!(matches!(past, Err(StorageError::SlotOutOfBounds { .. })));
    }

    #[test]
    fn chain_suffix_reads_exact_tail() {
        let g = DagGenerator::new(200, 5.0, 40).seed(11).generate();
        let (mut disk, idx) = build(&g);
        let mut out = Vec::new();
        for (c, chain) in idx.decomposition().chains.clone().iter().enumerate() {
            for from in [0usize, chain.len() / 2, chain.len()] {
                idx.chain_suffix(&mut disk, c as u32, from as u32, &mut out)
                    .unwrap();
                assert_eq!(
                    &out[..],
                    &chain[from.min(chain.len())..],
                    "chain {c} from {from}"
                );
            }
        }
    }

    #[test]
    fn empty_graph_builds_an_empty_index() {
        let g = Graph::empty(0);
        let (_, idx) = build(&g);
        assert_eq!(idx.width(), 0);
        assert_eq!(idx.label_entries(), 0);
    }
}
