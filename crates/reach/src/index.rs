//! The interval-label reachability index and its paged persistence.
//!
//! Given a chain decomposition of width k, the label of node `v` is the
//! k-vector `L[v][c]` = the minimum position on chain `c` of any node
//! reachable from `v` (including `v` itself), or [`NO_POS`] when `v`
//! reaches nothing on chain `c`. Because every chain is a *path* of the
//! DAG, reaching position `p` on a chain means reaching every position
//! `≥ p`, so
//!
//! ```text
//! reach(u, v)  ⇔  L[u][chain(v)] ≤ pos(v)
//! ```
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

use tc_graph::{condensation, Condensation, Graph, NodeId};
use tc_storage::{FileId, FileKind, Pager, StorageError, StorageResult, ValueFile, ValueWriter};
use tc_trace::{Event, Tracer};

use crate::chain::{ChainDecomposition, NO_POS};

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
/// row-major.
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
        let k = cd.width();
        let mut rows = vec![NO_POS; n * k];
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

    /// Number of finite (reachable) entries across all rows.
    fn finite_entries(&self) -> u64 {
        self.rows.iter().filter(|&&p| p != NO_POS).count() as u64
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
///   `chain_starts[c]`);
/// * a **labels file** ([`FileKind::SuccessorList`]): k values
///   `pos-or-NO_POS` per component, in chain order — the label rows,
///   row `v` at values `v·k..(v + 1)·k`.
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
        let mut chains_w = ValueWriter::new(pager, FileKind::Index);
        let mut labels_w = ValueWriter::new(pager, FileKind::SuccessorList);
        let written = (|| {
            for chain in &cd.chains {
                chain_starts.push(chains_w.count());
                chains_w.extend_from_slice(pager, chain)?;
            }
            // The matrix is row-major in component order: it is the
            // file's content already.
            labels_w.extend_from_slice(pager, &labels.rows)
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
            finite: labels.finite_entries(),
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

    /// Reads component `v`'s persisted label row (k entries, chain
    /// order) into `out`, touching exactly the pages holding the row.
    pub fn label_row<P: Pager>(
        &self,
        pager: &mut P,
        v: NodeId,
        out: &mut Vec<u32>,
    ) -> StorageResult<()> {
        out.clear();
        let k = self.cd.width();
        if k == 0 {
            return Ok(());
        }
        let start = v as usize * k;
        self.labels_file.read_range(pager, start, start + k, out)
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
    /// the one page holding that entry, when `u` and `v` lie in
    /// different components, and none when they share one.
    pub fn reach<P: Pager>(&self, pager: &mut P, u: NodeId, v: NodeId) -> StorageResult<bool> {
        let (a, b) = (self.component(u), self.component(v));
        if a == b {
            return Ok(self.cond.is_cyclic(a));
        }
        let at = a as usize * self.cd.width() + self.cd.chain_of[b as usize] as usize;
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
    fn persisted_rows_equal_matrix_rows() {
        let g = DagGenerator::new(300, 4.0, 60).seed(4).generate();
        let (mut disk, idx) = build(&g);
        let mut row = Vec::new();
        for v in 0..idx.condensation().component_count() as NodeId {
            idx.label_row(&mut disk, v, &mut row).unwrap();
            assert_eq!(&row[..], idx.labels().row(v), "row {v}");
        }
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
