//! Dynamic transitive closure: incremental maintenance of a
//! materialized closure relation under arc insertions and deletions.
//!
//! The paper computes closures from scratch; this module serves the
//! live-update scenario (ROADMAP open item 2) on top of the same
//! substrate. A [`DynamicClosure`] owns a [`Database`] (the clustered
//! base relation + index) plus a materialized closure file, and
//! maintains the closure under update batches.
//!
//! Maintenance is the paper's winner, BTC (§3), restricted to the rows
//! a batch can change. A closure row can differ after the batch only if
//! its source is the tail of a changed arc or an ancestor of one in the
//! *old* closure; those sources are visited in reverse topological
//! order of the post-update graph, and each one's row is set to the
//! union of `{z} ∪ row(z)` over its post-update children `z`, probed
//! once through the clustered index. A child's row is finished by then
//! — settled earlier in the sweep, or untouched by the batch — so the
//! union is the closure row by definition: insertions, deletions and an
//! arc that comes and goes in one batch are not separate cases. A source
//! that reaches no deleted arc can only gain successors; it keeps its
//! row and merges only children whose row changed or whose arc is new.
//! A source that owns no changed arc and none of whose children's rows
//! the sweep changed is cut off after its children probe: its row is a
//! function of those two, so the old row is the new one.
//!
//! Every `apply` is one traced, metered run — the same
//! `MeteredRun` lifecycle (`crate::lifecycle`) an engine run goes
//! through: the *restructuring* phase applies the batch to the
//! in-memory graph and rebuilds the base relation and index on the raw
//! store; the *computation* phase scans the closure, runs the sweep
//! and rewrites the file through a fresh buffer pool. Page-I/O counting, buffer statistics, fault
//! injection, retry accounting, tracing ([`Event::UpdateApply`] /
//! [`Event::DeltaApplied`]) and `metrics ≡ replay(trace)` all carry
//! over unchanged, so dynamic runs are first-class citizens of the
//! experiment and differential-testing harnesses.
//!
//! On the medium the closure is a positional [`ValueFile`]: the
//! successors of source 0, then of source 1, and so on, with no source
//! stored beside them — the row table `rows` the instance keeps says
//! where each row starts. In memory it is that scanned column plus a
//! bit row per source the batch writes to ([`TupleRows`]); rows are
//! merged with word-parallel ORs, so the wall-clock cost follows the
//! rows a batch touches, like the counted cost does.
//!
//! The initial closure comes from the same recurrence run once over the
//! whole graph: [`DynamicClosure::build`] takes
//! [`closure::dfs_closure`]'s rows, settled in reverse topological order
//! as word-parallel unions of the children's rows, and reads each one off
//! ascending into the column. Its transient `n × n` bit matrix (`n²/8`
//! bytes) is smaller than the `N × k` label matrix a freeze builds when
//! `k ≥ N/32`, and than the column itself when `|TC| ≥ n²/32`.
//!
//! The whole layer is deterministic: there is no hash container, the
//! sweep order and every row are derived from sorted data, and all I/O goes
//! through the same counted paths as static runs — a given (graph,
//! stream, config) triple produces bit-identical tuples, metrics and
//! trace digests on every backend and at any parallelism.

use crate::config::SystemConfig;
use crate::database::Database;
use crate::lifecycle::MeteredRun;
use crate::metrics::CostMetrics;
use crate::Algorithm;
use std::fmt;
use tc_buffer::BufferPool;
use tc_graph::topo::topological_order;
use tc_graph::{closure, BitRow, Graph, NodeId, UpdateOp};
use tc_obs::SpanRecorder;
use tc_reach::{NullMeter, ReachIndex};
use tc_storage::{
    ClusteredRelation, FileKind, FrozenPageSet, PageStore, StorageError, StorageResult, ValueFile,
    ValueWriter,
};
use tc_succ::TupleRows;
use tc_trace::{Event, Tracer};

/// Why [`DynamicClosure::apply`] did not apply a batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// The store failed underneath the run; the instance may be
    /// partially rewritten (see [`DynamicClosure::apply`]).
    Storage(StorageError),
    /// The batch's inserts would close a cycle. Nothing was changed:
    /// graph, relation, index and closure are as before the call.
    ClosesCycle {
        /// Operations in the rejected batch.
        ops: usize,
        /// The inserted arc `(src, dst)` that closes the cycle: with the
        /// batch's other changes and its earlier inserts in place, `dst`
        /// already reaches `src`.
        arc: (NodeId, NodeId),
    },
    /// An operation names a node the graph does not have. Nothing was
    /// changed, as for [`UpdateError::ClosesCycle`].
    UnknownNode {
        /// Position of the operation in the batch.
        op_index: usize,
        /// The node it names.
        node: NodeId,
        /// Nodes in the graph: valid ids are `0..n`.
        n: usize,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Storage(e) => e.fmt(f),
            UpdateError::ClosesCycle { ops, arc } => write!(
                f,
                "update batch of {ops} ops rejected: inserting {} -> {} closes a cycle \
                 (dynamic maintenance requires a DAG; nothing was changed)",
                arc.0, arc.1
            ),
            UpdateError::UnknownNode { op_index, node, n } => write!(
                f,
                "update batch rejected: op {op_index} names node {node}, but the graph has \
                 nodes 0..{n} (nothing was changed)"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<StorageError> for UpdateError {
    fn from(e: StorageError) -> UpdateError {
        UpdateError::Storage(e)
    }
}

/// The outcome of one incremental maintenance run ([`DynamicClosure::apply`]).
#[derive(Clone, Debug)]
pub struct UpdateResult {
    /// The full metric suite of the maintenance run (same shape as a
    /// query run's; `answer_tuples` is always 0 — maintenance updates
    /// the materialized closure, it does not answer a query).
    pub metrics: CostMetrics,
    /// Closure tuples added by the batch (net of re-derivations).
    pub inserted: u64,
    /// Closure tuples removed by the batch (net of re-derivations).
    pub removed: u64,
}

/// The *net* arc changes of a batch, each list in op order: no-op
/// inserts of present arcs and deletes of absent arcs are skipped, and
/// an insert and a delete of the same arc cancel — maintenance must
/// neither derive through an arc that is gone again nor treat one that
/// is back as lost.
struct AppliedOps {
    inserted: Vec<(NodeId, NodeId)>,
    deleted: Vec<(NodeId, NodeId)>,
    /// A topological order of the post-update graph, parents first;
    /// empty when the batch changed no arc.
    order: Vec<NodeId>,
}

/// A materialized full transitive closure maintained under updates.
///
/// ```
/// use tc_core::dynamic::DynamicClosure;
/// use tc_core::SystemConfig;
/// use tc_graph::{DagGenerator, UpdateOp};
///
/// let g = DagGenerator::new(300, 3.0, 60).seed(7).generate();
/// let cfg = SystemConfig::with_buffer(20);
/// let mut dyn_tc = DynamicClosure::build(&g, &cfg).unwrap();
/// let before = dyn_tc.tuple_count();
/// let res = dyn_tc.apply(&[UpdateOp::Insert(0, 250)]).unwrap();
/// assert!(res.metrics.total_io() > 0);
/// assert_eq!(
///     dyn_tc.tuple_count() as u64,
///     before as u64 + res.inserted - res.removed
/// );
/// ```
pub struct DynamicClosure {
    db: Database,
    /// The closure's successor column, sources ascending and each
    /// source's successors ascending.
    tc: ValueFile,
    /// Row offsets of `tc` (`n + 1` entries): source `u`'s successors
    /// are values `rows[u]..rows[u + 1]`. The only record of where a row
    /// starts; known at build and after every `apply`, so `freeze` hands
    /// them to the snapshot without a scan.
    rows: Vec<u32>,
    cfg: SystemConfig,
}

impl DynamicClosure {
    /// Builds the database for `graph` and materializes its full
    /// closure on disk (sorted `(source, successor)`, irreflexive).
    ///
    /// The initial closure is one reverse-topological pass,
    /// [`closure::dfs_closure`]: each node's row is the union of its
    /// children's finished rows (the paper's BTC, in memory), and row
    /// `s` read off ascending is source `s`'s successor list. The pass
    /// holds an `n × n` bit matrix, `n²/8` bytes, until `build` returns:
    /// less than the `|TC| × 4`-byte column it fills whenever
    /// `|TC| ≥ n²/32`, and than the `N × k` label matrix
    /// [`DynamicClosure::freeze`] builds whenever `k ≥ N/32`.
    ///
    /// Like [`Database::build_for`], the initial load is not charged:
    /// the store counters are reset once the closure is materialized,
    /// so metrics measure maintenance, not setup.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is cyclic (dynamic maintenance relies on the
    /// DAG invariant; condense cycles first, as the paper does).
    pub fn build(graph: &Graph, cfg: &SystemConfig) -> StorageResult<DynamicClosure> {
        assert!(
            graph.is_acyclic(),
            "DynamicClosure requires an acyclic graph (condense cycles first)"
        );
        let mut db = Database::build_for(graph, false, cfg)?;
        let matrix = closure::dfs_closure(graph);
        let mut successors: Vec<NodeId> = Vec::with_capacity(matrix.pair_count());
        let mut rows = vec![0];
        rows.extend((0..graph.n() as NodeId).map(|s| {
            successors.extend(matrix.ones(s));
            successors.len() as u32
        }));
        let mut store = db.take_store()?;
        let n = graph.n() as u64;
        let tc = ValueFile::bulk_load(store.as_mut(), FileKind::Output, n, &successors)?;
        store.reset_stats();
        db.restore_store(store);
        Ok(DynamicClosure {
            db,
            tc,
            rows,
            cfg: cfg.clone(),
        })
    }

    /// The current logical graph.
    pub fn graph(&self) -> &Graph {
        self.db.graph()
    }

    /// Number of tuples in the materialized closure.
    pub fn tuple_count(&self) -> usize {
        self.tc.count()
    }

    /// Pages of the materialized closure file.
    pub fn closure_pages(&self) -> usize {
        self.tc.page_count()
    }

    /// Short name of the attached backend (`"sim"` / `"file"`).
    pub fn backend_name(&self) -> &'static str {
        self.db.backend_name()
    }

    /// Reads the materialized closure back from disk (sorted,
    /// duplicate-free). Uses the direct pager path; the reads are
    /// charged to the store's cumulative counters but never to an
    /// `apply` (whose metrics are snapshot deltas).
    pub fn tuples(&mut self) -> StorageResult<Vec<(NodeId, NodeId)>> {
        let mut store = self.db.take_store()?;
        let mut successors = Vec::new();
        let read = self
            .tc
            .read_range(store.as_mut(), 0, self.tc.count(), &mut successors);
        self.db.restore_store(store);
        read?;
        // The file holds no sources: row `u` of the table says which
        // successors are `u`'s.
        let mut out = Vec::with_capacity(successors.len());
        for (u, row) in self.rows.windows(2).enumerate() {
            let row = &successors[row[0] as usize..row[1] as usize];
            out.extend(row.iter().map(|&v| (u as NodeId, v)));
        }
        Ok(out)
    }

    /// Freezes the current state into an immutable
    /// [`crate::ClosedSnapshot`] stamped with `epoch`, reading the live
    /// store and writing nothing to it:
    ///
    /// 1. capture the base relation, clustered index and closure into a
    ///    [`FrozenPageSet`];
    /// 2. thaw the capture into an in-memory store over the same page ids
    ///    and catalog;
    /// 3. build the chain-decomposition [`ReachIndex`] for the current
    ///    graph there, through the store's own pager — its files land
    ///    past every slot of the live store;
    /// 4. freeze that store back into the snapshot's page set, moving the
    ///    pages.
    ///
    /// Like the initial build, freezing is setup, not serving: the
    /// capture's reads are charged to the live store and its counters
    /// are reset afterwards, so the next `apply`'s metrics are
    /// unaffected. A failed freeze leaves the live store as it was.
    ///
    /// The live instance keeps working — `freeze` after every batch to
    /// publish updated snapshots while old ones keep serving.
    pub fn freeze(&mut self, epoch: u64) -> StorageResult<crate::ClosedSnapshot> {
        let mut store = self.db.take_store()?;
        let origin = store.backend_name();
        let files = crate::snapshot::capture_set(&self.db, &self.tc);
        let captured = FrozenPageSet::capture(store.as_mut(), &files);
        store.reset_stats();
        self.db.restore_store(store);
        let mut disk = captured?.thaw();
        let reach = ReachIndex::build(
            &mut disk,
            self.db.graph(),
            &Tracer::disabled(),
            &mut NullMeter,
        )?;
        Ok(crate::ClosedSnapshot::assemble(
            epoch,
            origin,
            self.db.graph(),
            FrozenPageSet::freeze(disk),
            self.db.relation.clone(),
            self.tc.clone(),
            self.rows.clone(),
            reach,
        ))
    }

    /// Applies one batch of updates to the graph, the base relation and
    /// the materialized closure, as a single traced and metered run.
    ///
    /// Operations are applied in order; inserts of arcs already present
    /// and deletes of arcs not present are no-ops (every op still emits
    /// its [`Event::UpdateApply`]). After the batch the closure file
    /// again holds exactly the transitive closure of the mutated graph.
    ///
    /// # Errors
    ///
    /// A batch whose inserts would close a cycle is rejected whole with
    /// [`UpdateError::ClosesCycle`], and one with an op naming a node
    /// outside the graph with [`UpdateError::UnknownNode`], before any
    /// file is touched: graph, relation, index and closure are exactly
    /// as before, and the next `apply` works. On [`UpdateError::Storage`] (e.g. an injected
    /// unrecoverable fault, or a closure file that reads back as
    /// something other than sorted rows of node ids:
    /// [`StorageError::CorruptFile`]) the store is reattached and
    /// disarmed, but the instance's relation, index and closure may be
    /// partially rewritten — discard the instance, as a crashed database
    /// would be recovered, not trusted.
    pub fn apply(&mut self, batch: &[UpdateOp]) -> Result<UpdateResult, UpdateError> {
        let cfg = &self.cfg;
        let (mut run, mut store) =
            MeteredRun::arm(&mut self.db, "update_apply", Algorithm::Seminaive, cfg)?;

        // ---- Restructuring: mutate the graph, rebuild relation+index
        // on the raw store (traced and charged like any bulk load).
        let applied = apply_to_base(&mut self.db, store.as_mut(), batch, cfg);

        // ---- Computation: incremental maintenance through a fresh
        // pool. A refused batch still crosses the boundary, so every
        // apply's stream has the same shape.
        let mut pool = run.open_pool(store);
        run.enter_compute(&pool);
        let counted = &mut run.metrics;
        let outcome = applied.and_then(|ops| {
            Ok(maintain(
                &self.db, &mut pool, &self.tc, &self.rows, &ops, counted, &cfg.obs,
            )?)
        });

        let (done, metrics) = run.finish(&mut self.db, pool, outcome)?;
        self.tc = done.file;
        self.rows = done.rows;
        Ok(UpdateResult {
            metrics,
            inserted: done.inserted,
            removed: done.removed,
        })
    }
}

/// Restructuring phase: applies the batch to the in-memory graph and
/// rebuilds the clustered base relation and its index on the raw store.
/// A batch naming an unknown node is refused before the graph changes;
/// one that leaves the graph cyclic is taken back out of the graph and
/// refused before any file is dropped.
fn apply_to_base(
    db: &mut Database,
    disk: &mut dyn PageStore,
    batch: &[UpdateOp],
    cfg: &SystemConfig,
) -> Result<AppliedOps, UpdateError> {
    let n = db.graph.n();
    for (op_index, op) in batch.iter().enumerate() {
        let (u, v) = op.arc();
        if let Some(node) = [u, v].into_iter().find(|&x| x as usize >= n) {
            return Err(UpdateError::UnknownNode { op_index, node, n });
        }
    }
    let mut ops = AppliedOps {
        inserted: Vec::new(),
        deleted: Vec::new(),
        order: Vec::new(),
    };
    for op in batch {
        let (u, v) = op.arc();
        cfg.trace.emit(Event::UpdateApply {
            insert: op.is_insert(),
            src: u,
            dst: v,
        });
        match *op {
            UpdateOp::Insert(u, v) => {
                if db.graph.add_arc(u, v) {
                    net_op((u, v), &mut ops.inserted, &mut ops.deleted);
                }
            }
            UpdateOp::Delete(u, v) => {
                if db.graph.remove_arc(u, v) {
                    net_op((u, v), &mut ops.deleted, &mut ops.inserted);
                }
            }
        }
    }
    if ops.inserted.is_empty() && ops.deleted.is_empty() {
        return Ok(ops);
    }
    let Some(order) = topological_order(&db.graph) else {
        // The net changes are the whole difference between the two arc
        // sets, so taking them back restores the graph exactly. Inserts
        // go newest first: the one whose removal breaks the last cycle
        // is the arc that closed it.
        let mut closing = None;
        for &(u, v) in ops.inserted.iter().rev() {
            db.graph.remove_arc(u, v);
            if closing.is_none() && db.graph.is_acyclic() {
                closing = Some((u, v));
            }
        }
        for &(u, v) in &ops.deleted {
            db.graph.add_arc(u, v);
        }
        return Err(UpdateError::ClosesCycle {
            ops: batch.len(),
            arc: closing.unwrap_or(ops.inserted[0]),
        });
    };
    ops.order = order;
    // In-place rebuild: the old files are dropped first, so the new ones
    // reuse whichever of their pages no synced catalog still gives them
    // (LIFO; the rest come back after this run's sync), keeping page-id
    // streams — and trace digests — identical on every backend.
    for file in db.relation.file_ids() {
        disk.drop_file(file)?;
    }
    let arcs: Vec<(NodeId, NodeId)> = db.graph.arcs().collect();
    db.relation = ClusteredRelation::bulk_load(disk, FileKind::Relation, &arcs)?;
    Ok(ops)
}

/// Records an effective change of `arc`: it cancels the batch's earlier
/// opposite change of the same arc if there is one, else joins `same`.
fn net_op(
    arc: (NodeId, NodeId),
    same: &mut Vec<(NodeId, NodeId)>,
    opposite: &mut Vec<(NodeId, NodeId)>,
) {
    match opposite.iter().position(|&a| a == arc) {
        Some(i) => {
            opposite.remove(i);
        }
        None => same.push(arc),
    }
}

/// What [`maintain`] leaves behind: the rewritten closure file, its row
/// offsets, and the net tuple delta.
struct Maintained {
    file: ValueFile,
    rows: Vec<u32>,
    inserted: u64,
    removed: u64,
}

/// The source is, or reaches in the old closure, the tail of an
/// inserted arc: its row may gain successors.
const GAINS: u8 = 1;
/// The same for a deleted arc: its row may lose successors.
const LOSES: u8 = 2;

/// Scans the closure column through `pager`, checking it against its row
/// table as the pages arrive — every row strictly ascending, every
/// successor below `n`, the table covering exactly the file — and hands
/// each tail's flags in `reaches` to its ancestors: the closure is
/// transitive, so a flag `x` picks up from `y` is one `x` also gets from
/// the tail itself, whatever the row order. The bytes come back from a
/// disk, so a violation is a [`StorageError::CorruptFile`], not a panic.
fn scan_rows(
    pager: &mut BufferPool,
    tc: &ValueFile,
    rows: &[u32],
    reaches: &mut [u8],
) -> StorageResult<Vec<NodeId>> {
    let n = reaches.len();
    let corrupt = |what| StorageError::CorruptFile {
        file: tc.file_id().0,
        what,
    };
    if rows.len() != n + 1 || rows[0] != 0 || rows[n] as usize != tc.count() {
        return Err(corrupt("the row table does not cover the closure file"));
    }
    let mut column: Vec<NodeId> = Vec::with_capacity(tc.count());
    // The row the scan is in, and the last successor seen in it.
    let (mut x, mut last) = (0usize, None);
    let mut bad = None;
    tc.scan_pages(pager, &mut |page| {
        let mut rest = page;
        while !rest.is_empty() && bad.is_none() {
            let at = column.len() + (page.len() - rest.len());
            while rows[x + 1] as usize <= at {
                (x, last) = (x + 1, None);
            }
            let (row, tail) = rest.split_at(rest.len().min(rows[x + 1] as usize - at));
            let mut flags = 0;
            for &y in row {
                if y as usize >= n {
                    bad = Some("a successor is not a node of the graph");
                    break;
                }
                if last.is_some_and(|prev| prev >= y) {
                    bad = Some("a closure row is not strictly ascending");
                    break;
                }
                flags |= reaches[y as usize];
                last = Some(y);
            }
            reaches[x] |= flags;
            rest = tail;
        }
        column.extend_from_slice(page);
    })?;
    match bad {
        Some(what) => Err(corrupt(what)),
        None => Ok(column),
    }
}

/// Computation phase: scan the closure, recompute the rows the batch
/// can change in one reverse-topological sweep, rewrite the file. Each
/// of the three is a span under `obs` (`scan`, `sweep`, `rewrite`).
fn maintain(
    db: &Database,
    pool: &mut BufferPool,
    tc: &ValueFile,
    rows: &[u32],
    ops: &AppliedOps,
    metrics: &mut CostMetrics,
    obs: &SpanRecorder,
) -> StorageResult<Maintained> {
    let n = db.graph().n();
    let mut reaches = vec![0u8; n];
    for &(u, _) in &ops.inserted {
        reaches[u as usize] |= GAINS;
    }
    for &(u, _) in &ops.deleted {
        reaches[u as usize] |= LOSES;
    }
    // Materialize the current closure through the pool (charged). The
    // column stays as scanned; only rows written to below get a bit row.
    let column = {
        let _s = obs.enter("scan");
        scan_rows(pool, tc, rows, &mut reaches)?
    };
    let mut closure = TupleRows::from_rows(rows.to_vec(), column);

    // The sweep: children first, so every row merged is final.
    let sweep = obs.enter("sweep");
    let mut row = BitRow::new(n);
    let mut kids: Vec<NodeId> = Vec::new();
    let mut derived: u64 = 0;
    for &x in ops.order.iter().rev() {
        let flags = reaches[x as usize];
        if flags == 0 {
            continue;
        }
        metrics.count_list_fetch();
        kids.clear();
        db.relation.children(pool, x, &mut kids)?;
        metrics.count_arcs_bulk(kids.len() as u64);
        // A row is a function of its own arcs and its children's rows:
        // with no arc of its own changed and no child's row rewritten,
        // it is final as it stands.
        let tail = ops
            .inserted
            .iter()
            .chain(&ops.deleted)
            .any(|&(u, _)| u == x);
        if !tail && !kids.iter().any(|&z| closure.is_written(z)) {
            continue;
        }
        // A row that cannot lose starts from itself, and a child it
        // already covers — old arc, unchanged row — has nothing to add.
        let keeps = flags & LOSES == 0;
        row.clear();
        if keeps {
            closure.or_row_into(x, &mut row);
        }
        for &z in &kids {
            if keeps && !closure.is_written(z) && !ops.inserted.contains(&(x, z)) {
                continue;
            }
            let len = closure.row_len(z) as u64;
            metrics.count_union();
            metrics.count_tuple_reads(len);
            derived += 1 + len;
            row.set(z);
            closure.or_row_into(z, &mut row);
        }
        closure.set_row(x, &row);
    }
    drop(sweep);

    // ---- Net delta and closure rewrite: each run of untouched rows
    // goes out as the slice of the scanned column it is, each written
    // row off its bits. Every derivation that did not add a tuple found
    // it present.
    let _s = obs.enter("rewrite");
    let (inserted, removed) = closure.delta();
    for _ in 0..inserted {
        metrics.count_generated(true);
    }
    metrics.count_duplicates(derived - inserted);
    // Free the old file first: the rewrite reuses whichever of its
    // pages no synced catalog still gives it.
    pool.free_file(tc.file_id())?;
    let mut out = ValueWriter::new(pool, FileKind::Output, n as u64);
    closure.column_runs(|run| out.extend_from_slice(pool, run))?;
    let file = out.finish();
    pool.flush_file(file.file_id())?;
    metrics.set_tuple_writes(file.count() as u64);
    metrics
        .trace
        .emit(Event::DeltaApplied { inserted, removed });
    Ok(Maintained {
        file,
        rows: closure.row_offsets(),
        inserted,
        removed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::{DagGenerator, StreamKind, UpdateStream};

    fn oracle(g: &Graph) -> Vec<(NodeId, NodeId)> {
        let all: Vec<NodeId> = (0..g.n() as NodeId).collect();
        closure::ptc_answer(g, &all)
    }

    #[test]
    fn build_materializes_the_full_closure() {
        let g = DagGenerator::new(200, 3.0, 50).seed(3).generate();
        let cfg = SystemConfig::with_buffer(16);
        let mut d = DynamicClosure::build(&g, &cfg).unwrap();
        assert_eq!(d.tuples().unwrap(), oracle(&g));
        assert_eq!(d.tuple_count(), oracle(&g).len());
    }

    #[test]
    fn single_insert_and_delete_roundtrip() {
        let g = DagGenerator::new(150, 2.0, 30).seed(4).generate();
        let cfg = SystemConfig::with_buffer(16);
        let mut d = DynamicClosure::build(&g, &cfg).unwrap();

        // Pick an absent forward arc.
        let (u, v) = (0u32, 140u32);
        assert!(!g.has_arc(u, v));
        let res = d.apply(&[UpdateOp::Insert(u, v)]).unwrap();
        assert!(res.inserted > 0);
        assert_eq!(res.removed, 0);
        let mut g2 = g.clone();
        g2.add_arc(u, v);
        assert_eq!(d.tuples().unwrap(), oracle(&g2));

        // Deleting it again restores the original closure.
        let res = d.apply(&[UpdateOp::Delete(u, v)]).unwrap();
        assert!(res.removed > 0);
        assert_eq!(res.inserted, 0);
        assert_eq!(d.tuples().unwrap(), oracle(&g));
    }

    #[test]
    fn mixed_stream_tracks_the_oracle() {
        let g = DagGenerator::new(250, 3.0, 50).seed(9).generate();
        let cfg = SystemConfig::with_buffer(20);
        let mut d = DynamicClosure::build(&g, &cfg).unwrap();
        let stream = UpdateStream::generate(&g, StreamKind::Mixed, 4, 12, 50, 77);
        let mut live = g.clone();
        for batch in stream.batches() {
            for op in batch {
                match *op {
                    UpdateOp::Insert(u, v) => live.add_arc(u, v),
                    UpdateOp::Delete(u, v) => live.remove_arc(u, v),
                };
            }
            let res = d.apply(batch).unwrap();
            assert!(res.metrics.total_io() > 0);
            assert_eq!(d.tuples().unwrap(), oracle(&live), "batch diverged");
        }
    }

    #[test]
    fn noop_batch_is_tolerated() {
        let g = DagGenerator::new(100, 2.0, 20).seed(1).generate();
        let cfg = SystemConfig::with_buffer(10);
        let mut d = DynamicClosure::build(&g, &cfg).unwrap();
        let before = d.tuple_count();
        // Delete an absent arc, insert a present one: both no-ops.
        let some_arc = g.arcs().next().unwrap();
        let res = d
            .apply(&[
                UpdateOp::Delete(0, 99),
                UpdateOp::Insert(some_arc.0, some_arc.1),
            ])
            .unwrap();
        assert_eq!(res.inserted, 0);
        assert_eq!(res.removed, 0);
        assert_eq!(d.tuple_count(), before);
    }

    #[test]
    fn repeated_applies_are_deterministic() {
        let g = DagGenerator::new(200, 3.0, 40).seed(6).generate();
        let cfg = SystemConfig::with_buffer(12);
        let stream = UpdateStream::generate(&g, StreamKind::DeleteHeavy, 3, 10, 40, 5);
        let run = || {
            let mut d = DynamicClosure::build(&g, &cfg).unwrap();
            let mut io = Vec::new();
            for batch in stream.batches() {
                io.push(d.apply(batch).unwrap().metrics.total_io());
            }
            (io, d.tuples().unwrap())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cycle_closing_batch_is_rejected_whole() {
        let g = tc_graph::gen::path(5);
        let cfg = SystemConfig::default();
        let mut d = DynamicClosure::build(&g, &cfg).unwrap();
        let before = d.tuples().unwrap();
        // A legal delete and a legal insert ride in the refused batch:
        // neither may stick.
        let batch = [
            UpdateOp::Delete(1, 2),
            UpdateOp::Insert(0, 3),
            UpdateOp::Insert(4, 0),
        ];
        let err = d.apply(&batch).unwrap_err();
        assert_eq!(
            err,
            UpdateError::ClosesCycle {
                ops: 3,
                arc: (4, 0)
            }
        );
        assert!(err.to_string().contains("4 -> 0"), "{err}");
        assert_eq!(d.graph(), &g, "graph changed by a refused batch");
        assert_eq!(d.tuples().unwrap(), before);
        let snapshot = d.freeze(1).unwrap();
        assert_eq!(snapshot.closure_tuples(), before.len());

        // The instance is as good as new: the next batch applies.
        let mut live = g.clone();
        live.remove_arc(1, 2);
        live.add_arc(0, 3);
        let res = d.apply(&batch[..2]).unwrap();
        assert!(res.removed > 0);
        assert_eq!(d.tuples().unwrap(), oracle(&live));
    }

    #[test]
    fn op_naming_an_unknown_node_is_refused_whole() {
        let g = tc_graph::gen::path(5);
        let mut d = DynamicClosure::build(&g, &SystemConfig::default()).unwrap();
        let before = d.tuples().unwrap();
        // The legal delete ahead of it must not stick; 5 is one past
        // the last node, and either end of an op may be the stranger.
        for (batch, node) in [
            ([UpdateOp::Delete(1, 2), UpdateOp::Insert(0, 5)], 5),
            ([UpdateOp::Delete(1, 2), UpdateOp::Delete(9, 0)], 9),
        ] {
            let err = d.apply(&batch).unwrap_err();
            let refusal = UpdateError::UnknownNode {
                op_index: 1,
                node,
                n: 5,
            };
            assert_eq!(err, refusal);
            assert!(err.to_string().contains(&format!("node {node}")), "{err}");
            assert_eq!(d.graph(), &g, "graph changed by a refused batch");
            assert_eq!(d.tuples().unwrap(), before);
        }

        // The instance is as good as new: the next batch applies.
        let mut live = g.clone();
        live.remove_arc(1, 2);
        d.apply(&[UpdateOp::Delete(1, 2)]).unwrap();
        assert_eq!(d.tuples().unwrap(), oracle(&live));
    }

    #[test]
    fn tuples_round_trip_closures_with_empty_rows() {
        // Sources 0 and 1 (first), 4 and 5 (middle) and 8 (last) reach
        // nothing: their rows are empty, two of them back to back, and
        // the file has no source column to tell them apart.
        let g = Graph::from_arcs(9, [(2, 3), (2, 6), (3, 7), (6, 7), (7, 8)]);
        for cfg in [
            SystemConfig::with_buffer(8),
            SystemConfig::with_buffer(8).backend(tc_storage::Backend::file_temp()),
        ] {
            let mut d = DynamicClosure::build(&g, &cfg).unwrap();
            assert_eq!(d.tuples().unwrap(), oracle(&g));
            // Fill an empty row, empty a filled one, and back.
            let mut live = g.clone();
            for op in [
                UpdateOp::Insert(0, 5),
                UpdateOp::Insert(4, 6),
                UpdateOp::Delete(7, 8),
                UpdateOp::Delete(2, 3),
                UpdateOp::Delete(2, 6),
                UpdateOp::Insert(7, 8),
            ] {
                match op {
                    UpdateOp::Insert(u, v) => live.add_arc(u, v),
                    UpdateOp::Delete(u, v) => live.remove_arc(u, v),
                };
                d.apply(&[op]).unwrap();
                let expect = oracle(&live);
                assert_eq!(d.tuples().unwrap(), expect, "after {op:?}");
                let snap = d.freeze(1).unwrap();
                let mut store = snap.open_store();
                for u in 0..9 {
                    let row = closure::successors_of(&live, u);
                    assert_eq!(
                        snap.ptc(&mut store, u).unwrap(),
                        row,
                        "ptc({u}) after {op:?}"
                    );
                }
            }
        }
        // No arc at all: every row is empty and the file has no page.
        let mut d = DynamicClosure::build(&Graph::empty(4), &SystemConfig::default()).unwrap();
        assert_eq!(d.closure_pages(), 0);
        assert!(d.tuples().unwrap().is_empty());
        d.apply(&[UpdateOp::Insert(1, 3)]).unwrap();
        assert_eq!(d.tuples().unwrap(), [(1, 3)]);
    }

    #[test]
    fn a_bad_closure_file_is_a_typed_error_naming_the_file() {
        use tc_storage::{Backend, Page, ValuePage};

        /// Rewrites the first closure page through the store, so the
        /// image the next read gets back carries a checksum that
        /// verifies. `edit` is given the file's slot layout and the
        /// position of a row of at least two successors on that page.
        fn rewrite(d: &mut DynamicClosure, edit: fn(ValuePage, &mut Page, usize)) {
            let long = |w: &[u32]| w[1] - w[0] >= 2 && w[1] <= 512;
            let at = d.rows[d.rows.windows(2).position(long).unwrap()] as usize;
            let pid = d.tc.pages()[0];
            let mut store = d.db.take_store().unwrap();
            let mut page = Page::new();
            store.read_page(pid, &mut page).unwrap();
            edit(d.tc.layout(), &mut page, at);
            store.write_page(pid, &page).unwrap();
            d.db.restore_store(store);
        }
        type Damage = fn(&mut DynamicClosure);
        let damage: [(&str, Damage); 3] = [
            ("ascending", |d| {
                rewrite(d, |slots, page, at| {
                    let swapped = [slots.get(page, at + 1), slots.get(page, at)];
                    slots.write(page, at, &swapped);
                })
            }),
            ("not a node", |d| {
                rewrite(d, |slots, page, at| slots.write(page, at + 1, &[200]))
            }),
            ("row table", |d| *d.rows.last_mut().unwrap() -= 1),
        ];
        let g = DagGenerator::new(200, 3.0, 40).seed(13).generate();
        for backend in [Backend::Sim, Backend::file_temp()] {
            for (what, damage) in damage {
                let cfg = SystemConfig::with_buffer(12).backend(backend.clone());
                let mut d = DynamicClosure::build(&g, &cfg).unwrap();
                damage(&mut d);
                let file = d.tc.file_id().0;
                let err = d.apply(&[UpdateOp::Insert(0, 199)]).unwrap_err();
                assert!(
                    matches!(
                        err,
                        UpdateError::Storage(StorageError::CorruptFile { file: named, .. })
                            if named == file
                    ),
                    "{what}: expected CorruptFile of file {file}, got {err:?}"
                );
                let text = err.to_string();
                assert!(
                    text.contains(&format!("file {file}")) && text.contains(what),
                    "{what}: {text}"
                );
            }
        }
    }

    #[test]
    fn freeze_leaves_the_live_store_untouched() {
        use tc_storage::file_store::SEGMENT_FILE;
        use tc_storage::{Backend, FileId, PageId, TempDir};

        /// What a freeze must not move: page count, free list, every
        /// file's pages (files are numbered densely, so the first id the
        /// store refuses ends the table) and the segment's length.
        type Layout = (usize, Vec<PageId>, Vec<Vec<PageId>>, Option<u64>);
        fn layout(d: &DynamicClosure, segment: Option<&std::path::Path>) -> Layout {
            let store = d.db.store.as_deref().unwrap();
            let files = (0..)
                .map_while(|id| store.file_pages(FileId(id)).ok())
                .map(<[PageId]>::to_vec)
                .collect();
            (
                store.page_count(),
                store.catalog().free_pages().to_vec(),
                files,
                segment.map(|path| std::fs::metadata(path).unwrap().len()),
            )
        }

        let g = DagGenerator::new(200, 3.0, 40).seed(12).generate();
        let dir = TempDir::new("tc-freeze-untouched").unwrap();
        let segment = dir.path().join(SEGMENT_FILE);
        let file = Backend::File {
            dir: Some(dir.path().to_path_buf()),
        };
        for (backend, segment) in [(Backend::Sim, None), (file, Some(segment.as_path()))] {
            let cfg = SystemConfig::with_buffer(12).backend(backend);
            let mut d = DynamicClosure::build(&g, &cfg).unwrap();
            // A batch that shrinks the closure leaves the live store
            // released pages a careless freeze would reuse.
            let mut live = g.clone();
            let cut: Vec<UpdateOp> = g
                .arcs()
                .take(20)
                .map(|(u, v)| {
                    live.remove_arc(u, v);
                    UpdateOp::Delete(u, v)
                })
                .collect();
            d.apply(&cut).unwrap();
            let before = layout(&d, segment);
            assert!(!before.1.is_empty(), "the fixture left no free page");

            let snap = d.freeze(1).unwrap();
            assert_eq!(layout(&d, segment), before, "{}", d.backend_name());
            let store = snap.open_store();
            for f in snap.reach_index().files() {
                let pages = store.file_pages(f).unwrap();
                assert!(!pages.is_empty());
                assert!(
                    pages.iter().all(|p| p.index() >= before.0),
                    "{}: an index page sits among the live store's {} slots: {pages:?}",
                    d.backend_name(),
                    before.0
                );
            }
            // The snapshot answers from those pages.
            let mut store = snap.open_store();
            for u in (0..200).step_by(7) {
                let row = closure::successors_of(&live, u);
                for v in (0..200).step_by(3) {
                    let expect = row.binary_search(&v).is_ok();
                    assert_eq!(snap.reach(&mut store, u, v).unwrap(), expect, "{u}->{v}");
                }
            }
        }
    }

    #[test]
    fn freeze_returns_the_index_pages_when_capture_fails() {
        use std::fs::OpenOptions;
        use std::io::{Read, Seek, SeekFrom, Write};
        use tc_storage::file_store::SEGMENT_FILE;
        use tc_storage::{Backend, TempDir, FILE_STORE_HEADER_SIZE, FILE_STORE_SLOT_SIZE};

        let g = DagGenerator::new(200, 3.0, 40).seed(11).generate();
        let dirs = [
            TempDir::new("tc-freeze-leak").unwrap(),
            TempDir::new("tc-freeze-twin").unwrap(),
        ];
        let mut pair = dirs.each_ref().map(|dir| {
            let cfg = SystemConfig::with_buffer(12).backend(Backend::File {
                dir: Some(dir.path().to_path_buf()),
            });
            DynamicClosure::build(&g, &cfg).unwrap()
        });
        let segment = dirs.each_ref().map(|dir| dir.path().join(SEGMENT_FILE));

        // Flip one payload byte of the first closure page, under the
        // store's feet: the capture read must fail its checksum.
        let flip = |path: &std::path::Path, slot: usize| {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(path)
                .unwrap();
            let at = (slot * FILE_STORE_SLOT_SIZE + FILE_STORE_HEADER_SIZE + 40) as u64;
            let mut b = [0u8; 1];
            file.seek(SeekFrom::Start(at)).unwrap();
            file.read_exact(&mut b).unwrap();
            b[0] ^= 0x10;
            file.seek(SeekFrom::Start(at)).unwrap();
            file.write_all(&b).unwrap();
        };
        let slot = pair[0].tc.pages()[0].index();
        flip(&segment[0], slot);
        match pair[0].freeze(1) {
            Err(StorageError::ChecksumMismatch { .. }) => {}
            other => panic!(
                "expected ChecksumMismatch, got {:?}",
                other.map(|s| s.epoch())
            ),
        }
        flip(&segment[0], slot);

        // From here on both instances do the same work; had the failed
        // freeze kept its index files, the first store would now grow
        // past its twin.
        let batch = [UpdateOp::Insert(0, 199), UpdateOp::Delete(0, 199)];
        for d in &mut pair {
            d.freeze(2).unwrap();
            d.apply(&batch[..1]).unwrap();
            d.freeze(3).unwrap();
            d.apply(&batch[1..]).unwrap();
        }
        let len = segment
            .each_ref()
            .map(|p| std::fs::metadata(p).unwrap().len());
        assert_eq!(len[0], len[1], "a failed freeze leaked pages");
        assert_eq!(pair[0].tuples().unwrap(), oracle(&g));
    }

    /// Arbitrary batches through `apply`: ids past the graph up to
    /// `u32::MAX`, self-loops, inserts of present arcs and deletes of
    /// absent ones, empty batches, an op twice, an arc inserted then
    /// deleted, and cycles. Every outcome is the oracle's closure, or a
    /// typed refusal that leaves the graph, the tuples, the page count
    /// and the catalog as they were; a panic fails the case.
    #[test]
    fn arbitrary_batches_apply_or_are_refused_unchanged() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use tc_det::check::{self, Checker};
        use tc_det::Rng;

        /// Node count, base arcs (ascending, so a DAG) and the batches.
        type Case = (usize, Vec<(NodeId, NodeId)>, Vec<Vec<UpdateOp>>);

        /// Mostly a node of the graph; now and then one past it, a
        /// random word or `u32::MAX`.
        fn node(rng: &mut Rng, n: usize) -> NodeId {
            match rng.random_range(0..40u32) {
                0 => u32::MAX,
                1 => n as NodeId,
                2 => rng.next_u32(),
                _ => rng.random_range(0..n.max(1) as NodeId),
            }
        }
        fn batch(rng: &mut Rng, n: usize, base: &[(NodeId, NodeId)]) -> Vec<UpdateOp> {
            let mut ops = Vec::new();
            for _ in 0..rng.random_range(0..8usize) {
                let (u, v) = match rng.random_range(0..5u32) {
                    0 if !base.is_empty() => base[rng.random_range(0..base.len())],
                    1 => {
                        let u = node(rng, n);
                        (u, u)
                    }
                    _ => (node(rng, n), node(rng, n)),
                };
                let (insert, delete) = (UpdateOp::Insert(u, v), UpdateOp::Delete(u, v));
                match rng.random_range(0..6u32) {
                    0 => ops.extend([insert, delete]),
                    1 => ops.extend([insert, insert]),
                    2 => ops.extend([delete, delete]),
                    3 | 4 => ops.push(insert),
                    _ => ops.push(delete),
                }
            }
            ops
        }
        fn generate(rng: &mut Rng) -> Case {
            let n = rng.random_range(0..10usize);
            let base: Vec<(NodeId, NodeId)> = check::arc_list(rng, n.max(1) as NodeId, 20)
                .into_iter()
                .filter(|&(a, b)| a < b && (b as usize) < n)
                .collect();
            let batches = check::vec_of(rng, 1..6, |r| batch(r, n, &base));
            (n, base, batches)
        }
        fn shrink((n, base, batches): &Case) -> Vec<Case> {
            let mut out: Vec<Case> = check::shrink_vec(batches)
                .into_iter()
                .map(|b| (*n, base.clone(), b))
                .collect();
            for (i, ops) in batches.iter().enumerate() {
                for smaller in check::shrink_vec(ops) {
                    let mut b = batches.clone();
                    b[i] = smaller;
                    out.push((*n, base.clone(), b));
                }
            }
            out.extend(
                check::shrink_vec(base)
                    .into_iter()
                    .map(|a| (*n, a, batches.clone())),
            );
            out
        }
        /// The graph after `batch`, or the refusal it must get.
        fn model(live: &Graph, batch: &[UpdateOp]) -> Result<Graph, UpdateError> {
            let n = live.n();
            for (op_index, op) in batch.iter().enumerate() {
                let (u, v) = op.arc();
                if let Some(node) = [u, v].into_iter().find(|&x| x as usize >= n) {
                    return Err(UpdateError::UnknownNode { op_index, node, n });
                }
            }
            let mut next = live.clone();
            for op in batch {
                match *op {
                    UpdateOp::Insert(u, v) => next.add_arc(u, v),
                    UpdateOp::Delete(u, v) => next.remove_arc(u, v),
                };
            }
            if next.is_acyclic() {
                return Ok(next);
            }
            // Which insert the refusal names is the implementation's
            // choice; the check below holds it to one on a cycle.
            Err(UpdateError::ClosesCycle {
                ops: batch.len(),
                arc: (0, 0),
            })
        }
        /// What a refusal must leave as it was.
        type State = (Graph, Vec<(NodeId, NodeId)>, usize, tc_storage::Catalog);
        fn state(d: &mut DynamicClosure) -> Result<State, String> {
            let tuples = d.tuples().map_err(|e| format!("scan failed: {e}"))?;
            let store = d.db.store.as_deref().ok_or("no store attached")?;
            let (pages, catalog) = (store.page_count(), store.catalog().clone());
            Ok((d.graph().clone(), tuples, pages, catalog))
        }

        Checker::new("arbitrary_batches_apply_or_are_refused_unchanged")
            .cases(64)
            .run(generate, shrink, |(n, base, batches)| {
                let g = Graph::from_arcs(*n, base.iter().copied());
                let mut d = DynamicClosure::build(&g, &SystemConfig::with_buffer(6))
                    .map_err(|e| format!("build failed: {e}"))?;
                let mut live = g;
                for batch in batches {
                    let before = state(&mut d)?;
                    let got = catch_unwind(AssertUnwindSafe(|| d.apply(batch)))
                        .map_err(|_| format!("apply panicked on {batch:?}"))?;
                    match (got, model(&live, batch)) {
                        (Ok(res), Ok(next)) => {
                            let (old, new) = (oracle(&live), oracle(&next));
                            live = next;
                            if d.graph() != &live || d.tuples().ok() != Some(new.clone()) {
                                return Err(format!("{batch:?}: closure is not the oracle's"));
                            }
                            let gained = new.iter().filter(|t| !old.contains(t)).count();
                            let lost = old.iter().filter(|t| !new.contains(t)).count();
                            if (res.inserted, res.removed) != (gained as u64, lost as u64) {
                                return Err(format!("{batch:?}: wrong delta {res:?}"));
                            }
                        }
                        (Err(e), Err(want)) => {
                            let named = match (&e, &want) {
                                (
                                    UpdateError::ClosesCycle { ops, arc: (u, v) },
                                    UpdateError::ClosesCycle { ops: want_ops, .. },
                                ) => {
                                    let mut after = live.clone();
                                    for op in batch.iter().filter(|op| op.is_insert()) {
                                        let (a, b) = op.arc();
                                        after.add_arc(a, b);
                                    }
                                    ops == want_ops
                                        && batch.contains(&UpdateOp::Insert(*u, *v))
                                        && closure::successors_of(&after, *v).contains(u)
                                }
                                _ => e == want,
                            };
                            if !named {
                                return Err(format!("{batch:?}: got {e:?}, expected {want:?}"));
                            }
                            if state(&mut d)? != before {
                                return Err(format!("{batch:?}: refused with {e:?} but changed"));
                            }
                        }
                        (got, want) => {
                            return Err(format!("{batch:?}: got {got:?}, expected {want:?}"))
                        }
                    }
                }
                Ok(())
            });
    }
}
