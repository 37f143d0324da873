//! Dynamic transitive closure: incremental maintenance of a
//! materialized closure relation under arc insertions and deletions.
//!
//! The paper computes closures from scratch; this module serves the
//! live-update scenario (ROADMAP open item 2) on top of the same
//! substrate. A [`DynamicClosure`] owns a [`Database`] (the clustered
//! base relation + index) plus a materialized closure file, and
//! maintains the closure under update batches:
//!
//! * **Insertions** use seminaive delta propagation: each inserted arc
//!   `(u, v)` seeds the new tuples `(u, v)` and `(x, v)` for every
//!   `tc(x, u)`, and the frontier is joined against the (rebuilt) base
//!   relation through the clustered index until it empties — the same
//!   index-nested-loop join the Seminaive baseline runs, restricted to
//!   the delta.
//! * **Deletions** use DRed-style overdelete/rederive: first every
//!   closure tuple with a derivation through a deleted arc is
//!   *overdeleted* (a fixpoint over the pre-update graph), then the
//!   affected source rows are *rederived* over the surviving arcs, so
//!   tuples with an alternative derivation are reinstated.
//!
//! Every `apply` is one traced, metered run — the same
//! `MeteredRun` lifecycle (`crate::lifecycle`) an engine run goes
//! through: the *restructuring* phase applies the batch to the
//! in-memory graph and rebuilds the base relation and index on the raw
//! store; the *computation* phase runs the maintenance joins through a
//! fresh buffer pool. Page-I/O counting, buffer statistics, fault
//! injection, retry accounting, tracing ([`Event::UpdateApply`] /
//! [`Event::DeltaApplied`]) and `metrics ≡ replay(trace)` all carry
//! over unchanged, so dynamic runs are first-class citizens of the
//! experiment and differential-testing harnesses.
//!
//! In memory the closure is its scanned sorted tuple list plus a bit
//! row per source the batch writes to ([`TupleRows`]), and the batch's
//! own lookup tables are node-indexed (`NodeLists`), so the wall-clock
//! cost follows the rows a batch touches, like the counted cost does.
//!
//! The whole layer is deterministic: there is no hash container, every
//! iteration order is derived from sorted data, and all I/O goes
//! through the same counted paths as static runs — a given (graph,
//! stream, config) triple produces bit-identical tuples, metrics and
//! trace digests on every backend and at any parallelism.

use crate::algorithm::Algorithm;
use crate::config::SystemConfig;
use crate::database::Database;
use crate::lifecycle::MeteredRun;
use crate::metrics::CostMetrics;
use std::fmt;
use tc_buffer::BufferPool;
use tc_graph::{closure, Graph, NodeId, UpdateOp};
use tc_reach::{NullMeter, ReachIndex};
use tc_storage::{
    ClusteredIndex, FaultEvent, FileKind, FrozenPageSet, PageStore, RelationFile, StorageError,
    StorageResult, TupleWriter,
};
use tc_succ::{row_offsets, NodeBitVec, TupleRows};
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
    /// The fault trace of the run (empty unless a plan was armed).
    pub fault_trace: Vec<FaultEvent>,
}

/// The *net* arc changes of a batch, each list in op order: no-op
/// inserts of present arcs and deletes of absent arcs are skipped, and
/// an insert and a delete of the same arc cancel — maintenance must
/// neither propagate from an arc that is gone again nor overdelete
/// through one that is back.
struct AppliedOps {
    inserted: Vec<(NodeId, NodeId)>,
    deleted: Vec<(NodeId, NodeId)>,
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
    tc: RelationFile,
    /// Row offsets of `tc` (`n + 1` entries): source `u`'s tuples are
    /// `rows[u]..rows[u + 1]`. Known at build and after every `apply`,
    /// so `freeze` hands them to the snapshot without a scan.
    rows: Vec<u32>,
    cfg: SystemConfig,
}

impl DynamicClosure {
    /// Builds the database for `graph` and materializes its full
    /// closure on disk (sorted `(source, successor)`, irreflexive).
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
        let all: Vec<NodeId> = (0..graph.n() as NodeId).collect();
        let full = closure::ptc_answer(graph, &all);
        let mut store = db.take_store()?;
        let tc = RelationFile::bulk_load(store.as_mut(), FileKind::Output, &full)?;
        store.reset_stats();
        db.restore_store(store);
        Ok(DynamicClosure {
            db,
            tc,
            rows: row_offsets(graph.n(), &full),
            cfg: cfg.clone(),
        })
    }

    /// The current logical graph.
    pub fn graph(&self) -> &Graph {
        self.db.graph()
    }

    /// Number of tuples in the materialized closure.
    pub fn tuple_count(&self) -> usize {
        self.tc.tuple_count()
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
        let out = self.tc.scan(store.as_mut());
        self.db.restore_store(store);
        out
    }

    /// Freezes the current state into an immutable
    /// [`crate::ClosedSnapshot`] stamped with `epoch`: builds the
    /// chain-decomposition reachability index for the current graph,
    /// captures the base relation, clustered index, closure and index
    /// files into a [`tc_storage::FrozenPageSet`], then drops the index
    /// files from the live store again. Like the initial build, freezing
    /// is setup, not serving: the live store's counters are reset
    /// afterwards, so the next `apply`'s metrics are unaffected.
    ///
    /// The live instance keeps working — `freeze` after every batch to
    /// publish updated snapshots while old ones keep serving.
    pub fn freeze(&mut self, epoch: u64) -> StorageResult<crate::ClosedSnapshot> {
        let store = self.db.take_store()?;
        let origin = store.backend_name();
        // The reach index builds through a pool like any engine run;
        // flush makes its files durable before capture.
        let mut pool = BufferPool::with_store(store, self.cfg.buffer_pages, self.cfg.page_policy);
        let reach = match ReachIndex::build(
            &mut pool,
            self.db.graph(),
            &Tracer::disabled(),
            &mut NullMeter,
        ) {
            Ok(idx) => idx,
            Err(e) => {
                self.db.restore_store(pool.into_store_discard());
                return Err(e);
            }
        };
        let flushed = reach.files().iter().try_for_each(|&f| pool.flush_file(f));
        let mut store = pool.into_store_discard();
        let captured = flushed.and_then(|()| {
            let files = crate::snapshot::capture_set(&self.db, &self.tc, &reach);
            FrozenPageSet::capture(store.as_mut(), &files)
        });
        // The index files were only needed for the capture; give their
        // pages back to the live store whether or not it succeeded.
        let dropped = reach.files().iter().try_for_each(|&f| store.drop_file(f));
        store.reset_stats();
        self.db.restore_store(store);
        let pages = captured?;
        dropped?;
        Ok(crate::ClosedSnapshot::assemble(
            epoch,
            origin,
            self.db.graph(),
            pages,
            self.db.relation.clone(),
            self.db.index.clone(),
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
    /// [`UpdateError::ClosesCycle`] before any file is touched: graph,
    /// relation, index and closure are exactly as before, and the next
    /// `apply` works. On [`UpdateError::Storage`] (e.g. an injected
    /// unrecoverable fault) the store is reattached and disarmed, but
    /// the instance's relation, index and closure may be partially
    /// rewritten — discard the instance, as a crashed database would be
    /// recovered, not trusted.
    ///
    /// # Panics
    ///
    /// Panics if an op names a node outside the graph.
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
        let outcome =
            applied.and_then(|ops| Ok(maintain(&self.db, &mut pool, &self.tc, &ops, counted)?));

        let (done, metrics, fault_trace) = run.finish(&mut self.db, pool, outcome)?;
        self.tc = done.file;
        self.rows = done.rows;
        Ok(UpdateResult {
            metrics,
            inserted: done.inserted,
            removed: done.removed,
            fault_trace,
        })
    }
}

/// Restructuring phase: applies the batch to the in-memory graph and
/// rebuilds the clustered base relation and its index on the raw store.
/// A batch that leaves the graph cyclic is taken back out of the graph
/// and refused before any file is dropped.
fn apply_to_base(
    db: &mut Database,
    disk: &mut dyn PageStore,
    batch: &[UpdateOp],
    cfg: &SystemConfig,
) -> Result<AppliedOps, UpdateError> {
    let mut ops = AppliedOps {
        inserted: Vec::new(),
        deleted: Vec::new(),
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
    if !ops.inserted.is_empty() && !db.graph.is_acyclic() {
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
    }
    if !ops.inserted.is_empty() || !ops.deleted.is_empty() {
        // In-place rebuild: dropping the old files first lets the new
        // ones reuse their pages (LIFO), keeping page-id streams — and
        // trace digests — identical on every backend.
        disk.drop_file(db.relation.file_id())?;
        disk.drop_file(db.index.file_id())?;
        let arcs: Vec<(NodeId, NodeId)> = db.graph.arcs().collect();
        db.relation = RelationFile::bulk_load(disk, FileKind::Relation, &arcs)?;
        db.index = ClusteredIndex::build(disk, &db.relation)?;
    }
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

/// Marks a node that has no list in a [`NodeLists`].
const NO_LIST: u32 = u32::MAX;

/// Node-indexed lists for the few nodes a batch gives one: a dense slot
/// table (one `u32` per node) and a `Vec` per listed node. A node is
/// either unlisted or has a (possibly empty) list.
struct NodeLists {
    slot: Vec<u32>,
    lists: Vec<Vec<NodeId>>,
}

impl NodeLists {
    fn new(n: usize) -> NodeLists {
        NodeLists {
            slot: vec![NO_LIST; n],
            lists: Vec::new(),
        }
    }

    /// The list of `v`, if it has one.
    fn get(&self, v: NodeId) -> Option<&[NodeId]> {
        match self.slot[v as usize] {
            NO_LIST => None,
            i => Some(&self.lists[i as usize]),
        }
    }

    fn get_mut(&mut self, v: NodeId) -> Option<&mut Vec<NodeId>> {
        match self.slot[v as usize] {
            NO_LIST => None,
            i => Some(&mut self.lists[i as usize]),
        }
    }

    /// The list of `v`; empty if it has none.
    fn of(&self, v: NodeId) -> &[NodeId] {
        self.get(v).unwrap_or(&[])
    }

    /// The list of `v`, created empty if it had none.
    fn entry(&mut self, v: NodeId) -> &mut Vec<NodeId> {
        if self.slot[v as usize] == NO_LIST {
            self.slot[v as usize] = self.lists.len() as u32;
            self.lists.push(Vec::new());
        }
        &mut self.lists[self.slot[v as usize] as usize]
    }

    /// The destinations of `arcs`, listed by source in arc order.
    fn by_source(n: usize, arcs: &[(NodeId, NodeId)]) -> NodeLists {
        let mut lists = NodeLists::new(n);
        for &(u, v) in arcs {
            lists.entry(u).push(v);
        }
        lists
    }
}

/// Probes the base relation for the children of `z` through the
/// clustered index (charged through the pool), memoizing per node in
/// `cache`: the maintenance fixpoints revisit nodes, and a real system
/// would keep such join state pinned.
fn fetch_children<'c>(
    db: &Database,
    pool: &mut BufferPool,
    metrics: &mut CostMetrics,
    cache: &'c mut NodeLists,
    z: NodeId,
) -> StorageResult<&'c [NodeId]> {
    if cache.get(z).is_none() {
        metrics.count_list_fetch();
        let kids = cache.entry(z);
        if let Some((lo, hi)) = db.index.probe(pool, z)? {
            db.relation.probe_range(pool, z, lo, hi, kids)?;
        }
    }
    Ok(cache.of(z))
}

/// The fetched (post-update) children `kids` of a node without the
/// `inserted` arcs this batch gave it, plus the arcs it `restored`
/// (deleted by this batch) when the pre-update children are wanted.
/// Only a node the batch changed pays for the copy into `buf`.
fn without_batch<'k>(
    kids: &'k [NodeId],
    inserted: &[NodeId],
    restored: &[NodeId],
    buf: &'k mut Vec<NodeId>,
) -> &'k [NodeId] {
    if inserted.is_empty() && restored.is_empty() {
        return kids;
    }
    buf.clear();
    buf.extend(kids.iter().filter(|y| !inserted.contains(y)));
    if !restored.is_empty() {
        buf.extend_from_slice(restored);
        buf.sort_unstable();
        buf.dedup();
    }
    buf
}

/// What [`maintain`] leaves behind: the rewritten closure file, its row
/// offsets, and the net tuple delta.
struct Maintained {
    file: RelationFile,
    rows: Vec<u32>,
    inserted: u64,
    removed: u64,
}

/// Computation phase: DRed overdelete/rederive for the deleted arcs,
/// seminaive delta propagation for the inserted arcs, then the closure
/// file rewrite.
fn maintain(
    db: &Database,
    pool: &mut BufferPool,
    tc: &RelationFile,
    ops: &AppliedOps,
    metrics: &mut CostMetrics,
) -> StorageResult<Maintained> {
    let n = db.graph().n();
    // Materialize the current closure through the pool (charged). The
    // sorted list stays as scanned; only rows written to below get a
    // bit row, and every iteration walks sorted data.
    let mut old: Vec<(NodeId, NodeId)> = Vec::with_capacity(tc.tuple_count());
    tc.scan_pages(pool, &mut |chunk| old.extend_from_slice(chunk))?;
    let mut closure = TupleRows::new(n, &old);

    // tc-by-destination, for the `(x, v) ← tc(x, u)` seed rule, for the
    // sources of the changed arcs only. One pass over the sorted
    // closure, so each predecessor list is sorted.
    let mut preds_tc = NodeLists::new(n);
    for &(u, _) in ops.deleted.iter().chain(&ops.inserted) {
        preds_tc.entry(u);
    }
    if !ops.deleted.is_empty() || !ops.inserted.is_empty() {
        for &(x, y) in &old {
            if let Some(xs) = preds_tc.get_mut(y) {
                xs.push(x);
            }
        }
    }

    let inserted_by_src = NodeLists::by_source(n, &ops.inserted);
    let deleted_by_src = NodeLists::by_source(n, &ops.deleted);

    let mut cache = NodeLists::new(n);
    let mut kids_buf: Vec<NodeId> = Vec::new();
    let mut round: u64 = 0;

    // ---- DRed step 1: overdelete. A fixpoint over the *old* graph
    // (the probed post-update children, minus this batch's inserts,
    // plus its deletes): every tuple with a derivation through a
    // deleted arc goes into `over`, transitively.
    if !ops.deleted.is_empty() {
        let mut over = TupleRows::new(n, &[]);
        let mut frontier: Vec<(NodeId, NodeId)> = Vec::new();
        for &(u, v) in &ops.deleted {
            for &x in std::iter::once(&u).chain(preds_tc.of(u)) {
                if closure.contains(x, v) && over.insert(x, v) {
                    frontier.push((x, v));
                }
            }
        }
        while !frontier.is_empty() {
            metrics.trace.emit(Event::IterationBegin { i: round });
            round += 1;
            let mut next = Vec::new();
            for (x, z) in frontier.drain(..) {
                metrics.count_union();
                let kids = fetch_children(db, pool, metrics, &mut cache, z)?;
                // Reconstruct the pre-update children of z.
                let kids = without_batch(
                    kids,
                    inserted_by_src.of(z),
                    deleted_by_src.of(z),
                    &mut kids_buf,
                );
                metrics.count_arcs_bulk(kids.len() as u64);
                for &y in kids {
                    metrics.count_tuple_read();
                    if closure.contains(x, y) && over.insert(x, y) {
                        next.push((x, y));
                    }
                }
            }
            frontier = next;
        }

        // ---- DRed step 2: rederive. Recompute the overdeleted
        // sources' rows over the surviving arcs (the post-update graph
        // minus this batch's inserts — those are the insert phase's
        // job), reinstating tuples with an alternative derivation.
        let mut seen = NodeBitVec::new(n);
        let mut queue: Vec<NodeId> = Vec::new();
        let mut rederived: u64 = 0;
        for x in over.touched() {
            metrics.trace.emit(Event::IterationBegin { i: round });
            round += 1;
            seen.clear_fast();
            seen.insert(x);
            queue.push(x);
            while let Some(z) = queue.pop() {
                metrics.count_union();
                let kids = fetch_children(db, pool, metrics, &mut cache, z)?;
                let kids = without_batch(kids, inserted_by_src.of(z), &[], &mut kids_buf);
                metrics.count_arcs_bulk(kids.len() as u64);
                for &y in kids {
                    metrics.count_tuple_read();
                    if seen.insert(y) {
                        queue.push(y);
                    }
                }
            }
            // `seen` minus x itself is what x still reaches.
            for y in over.row(x) {
                if y != x && seen.contains(y) {
                    rederived += 1;
                } else {
                    closure.remove(x, y);
                }
            }
        }
        for _ in 0..rederived {
            metrics.count_duplicate();
        }
    }

    // ---- Seminaive delta propagation for the inserted arcs: seed
    // `(u, v)` and `(x, v)` for surviving `tc(x, u)`, then join the
    // frontier with the post-update relation until it empties.
    if !ops.inserted.is_empty() {
        let mut frontier: Vec<(NodeId, NodeId)> = Vec::new();
        let mut seeds: Vec<NodeId> = Vec::new();
        for &(u, v) in &ops.inserted {
            seeds.clear();
            seeds.push(u);
            seeds.extend(preds_tc.of(u).iter().filter(|&&x| closure.contains(x, u)));
            for &x in &seeds {
                if x == v {
                    continue;
                }
                if closure.insert(x, v) {
                    metrics.count_generated(true);
                    frontier.push((x, v));
                } else {
                    metrics.count_duplicate();
                }
            }
        }
        while !frontier.is_empty() {
            metrics.trace.emit(Event::IterationBegin { i: round });
            round += 1;
            let mut next = Vec::new();
            for (x, z) in frontier.drain(..) {
                metrics.count_union();
                let kids = fetch_children(db, pool, metrics, &mut cache, z)?;
                metrics.count_arcs_bulk(kids.len() as u64);
                for &y in kids {
                    metrics.count_tuple_read();
                    if y == x {
                        continue;
                    }
                    if closure.insert(x, y) {
                        metrics.count_generated(true);
                        next.push((x, y));
                    } else {
                        metrics.count_duplicate();
                    }
                }
            }
            frontier = next;
        }
    }

    // ---- Net delta and closure rewrite, row by row: untouched rows
    // come straight from the old list, written rows off their bits.
    let (inserted, removed) = closure.delta();
    // Free the old file first so the rewrite reuses its pages.
    pool.free_file(tc.file_id())?;
    let mut out = TupleWriter::new(pool, FileKind::Output);
    for t in closure.iter() {
        out.push(pool, t)?;
    }
    let file = out.finish();
    pool.flush_file(file.file_id())?;
    metrics.set_tuple_writes(file.tuple_count() as u64);
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
}
