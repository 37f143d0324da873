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
//! Every `apply` is one traced, metered run shaped exactly like an
//! engine run: the *restructuring* phase applies the batch to the
//! in-memory graph and rebuilds the base relation and index on the raw
//! store; the *computation* phase runs the maintenance joins through a
//! fresh buffer pool. Page-I/O counting, buffer statistics, fault
//! injection, retry accounting, tracing ([`Event::UpdateApply`] /
//! [`Event::DeltaApplied`]) and `metrics ≡ replay(trace)` all carry
//! over unchanged, so dynamic runs are first-class citizens of the
//! experiment and differential-testing harnesses.
//!
//! The whole layer is deterministic: hash containers are used for
//! membership only, every iteration order is derived from sorted data,
//! and all I/O goes through the same counted paths as static runs — a
//! given (graph, stream, config) triple produces bit-identical tuples,
//! metrics and trace digests on every backend and at any parallelism.

use crate::algorithm::Algorithm;
use crate::config::SystemConfig;
use crate::database::Database;
use crate::metrics::{CostMetrics, PhaseIo};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::time::Instant;
use tc_buffer::BufferPool;
use tc_graph::{closure, Graph, NodeId, UpdateOp};
use tc_reach::{NullMeter, ReachIndex};
use tc_storage::{
    ClusteredIndex, FaultEvent, FaultPlan, FileKind, FrozenPageSet, PageStore, RelationFile,
    StorageResult, TupleWriter,
};
use tc_trace::{Event, Phase, Tracer};

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
        let outcome = flushed
            .and_then(|()| self.tc.scan(store.as_mut()))
            .and_then(|tuples| {
                let rows = crate::snapshot::closure_rows(&tuples, self.db.graph().n());
                let files = crate::snapshot::capture_set(&self.db, &self.tc, &reach);
                let pages = FrozenPageSet::capture(store.as_mut(), &files)?;
                Ok((rows, pages))
            })
            .and_then(|ok| {
                // The index files were only needed for the capture; give
                // their pages back to the live store either way.
                reach.files().iter().try_for_each(|&f| store.drop_file(f))?;
                Ok(ok)
            });
        store.reset_stats();
        self.db.restore_store(store);
        let (rows, pages) = outcome?;
        Ok(crate::ClosedSnapshot::assemble(
            epoch,
            origin,
            self.db.graph(),
            pages,
            self.db.relation.clone(),
            self.db.index.clone(),
            self.tc.clone(),
            rows,
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
    /// On error (e.g. an injected unrecoverable fault) the store is
    /// reattached and disarmed, but the instance's relation, index and
    /// closure may be partially rewritten — discard the instance, as a
    /// crashed database would be recovered, not trusted.
    ///
    /// # Panics
    ///
    /// Panics if an insert closes a cycle: update streams generated by
    /// `tc_graph::UpdateStream` preserve acyclicity by construction, so
    /// a cycle here is a programming error, not a data condition.
    pub fn apply(&mut self, batch: &[UpdateOp]) -> StorageResult<UpdateResult> {
        let start = Instant::now();
        let cfg = self.cfg.clone();
        // Wall-clock spans (observability only, never in a digest):
        // "update_apply" wraps the batch, with the restructure /
        // compute phases as children.
        let _apply_span = cfg.obs.enter("update_apply");
        let mut store = self.db.take_store()?;
        if let Some(fault) = &cfg.fault {
            store.set_fault_plan(FaultPlan::new(fault.clone()));
        }
        store.set_retry_policy(cfg.retry);
        store.set_tracer(cfg.trace.clone());
        let mut metrics = CostMetrics::traced(Algorithm::Seminaive, cfg.trace.clone());

        cfg.trace.emit(Event::RunBegin {
            algorithm: Algorithm::Seminaive.name(),
            ms_per_io: cfg.io_model.ms_per_io,
        });
        cfg.trace.emit(Event::PhaseBegin {
            phase: Phase::Restructure,
        });
        let disk_base = store.stats().clone();

        // ---- Restructuring: mutate the graph, rebuild relation+index
        // on the raw store (traced and charged like any bulk load).
        let restructure_span = cfg.obs.enter("restructure");
        let applied = apply_to_base(&mut self.db, store.as_mut(), batch, &cfg);
        drop(restructure_span);

        // ---- Computation: incremental maintenance through a fresh pool.
        let mut pool = BufferPool::with_store(store, cfg.buffer_pages, cfg.page_policy);
        pool.set_retry_policy(cfg.retry);
        pool.set_tracer(cfg.trace.clone());
        cfg.trace.emit(Event::PhaseEnd {
            phase: Phase::Restructure,
        });
        cfg.trace.emit(Event::PhaseBegin {
            phase: Phase::Compute,
        });
        let disk_at_phase_end = pool.store().stats().clone();
        let buffer_at_phase_end = pool.stats().clone();

        let compute_span = cfg.obs.enter("compute");
        let outcome = match applied {
            Ok(ops) => maintain(&self.db, &mut pool, &self.tc, &ops, &mut metrics),
            Err(e) => Err(e),
        };
        drop(compute_span);

        // Finalize exactly like the engine: the store returns to the
        // database even on error, disarmed first.
        let disk_stats_total = pool.store().stats().clone();
        metrics.buffer = pool.stats().clone();
        cfg.trace.emit(Event::PhaseEnd {
            phase: Phase::Compute,
        });
        cfg.trace.emit(Event::RunEnd);
        let mut store = pool.into_store_discard();
        store.set_tracer(Tracer::disabled());
        let fault = store.clear_fault_plan();
        let synced = store.sync();
        self.db.restore_store(store);
        let (new_tc, inserted, removed) = outcome?;
        synced?;
        self.tc = new_tc;

        let run_total = disk_stats_total.since(&disk_base);
        metrics.restructure_io = PhaseIo::from_disk(&disk_at_phase_end.since(&disk_base));
        metrics.compute_io = PhaseIo::from_disk(&disk_stats_total.since(&disk_at_phase_end));
        for (i, slot) in metrics.io_by_kind.iter_mut().enumerate() {
            *slot = (run_total.reads_by_kind[i], run_total.writes_by_kind[i]);
        }
        metrics.buffer_compute = metrics.buffer.since(&buffer_at_phase_end);
        metrics.io_retries = metrics.buffer.retries;
        metrics.retry_backoff_ms = metrics.buffer.retry_backoff_ms;
        let fault_trace = match fault {
            Some(plan) => {
                metrics.faults_injected = plan.stats().total_injected();
                metrics.corruptions_detected = plan.stats().detections;
                plan.into_events()
            }
            None => Vec::new(),
        };
        metrics.elapsed = start.elapsed();
        metrics.estimated_io_seconds = cfg.io_model.estimate_seconds(metrics.total_io());
        metrics.trace = Tracer::disabled();

        Ok(UpdateResult {
            metrics,
            inserted,
            removed,
            fault_trace,
        })
    }
}

/// Restructuring phase: applies the batch to the in-memory graph and
/// rebuilds the clustered base relation and its index on the raw store.
fn apply_to_base(
    db: &mut Database,
    disk: &mut dyn PageStore,
    batch: &[UpdateOp],
    cfg: &SystemConfig,
) -> StorageResult<AppliedOps> {
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
    assert!(
        ops.inserted.is_empty() || db.graph.is_acyclic(),
        "update batch closed a cycle — dynamic maintenance requires the DAG invariant"
    );
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

/// Probes the base relation for the children of `z` through the
/// clustered index (charged through the pool), memoizing per node: the
/// maintenance fixpoints revisit nodes, and a real system would keep
/// such join state pinned.
fn fetch_children(
    db: &Database,
    pool: &mut BufferPool,
    metrics: &mut CostMetrics,
    cache: &mut HashMap<NodeId, Vec<NodeId>>,
    z: NodeId,
) -> StorageResult<Vec<NodeId>> {
    if let Some(kids) = cache.get(&z) {
        return Ok(kids.clone());
    }
    let mut kids = Vec::new();
    metrics.count_list_fetch();
    if let Some((lo, hi)) = db.index.probe(pool, z)? {
        db.relation.probe_range(pool, z, lo, hi, &mut kids)?;
    }
    cache.insert(z, kids.clone());
    Ok(kids)
}

/// Computation phase: DRed overdelete/rederive for the deleted arcs,
/// seminaive delta propagation for the inserted arcs, then the closure
/// file rewrite. Returns the new closure file and the net tuple delta.
fn maintain(
    db: &Database,
    pool: &mut BufferPool,
    tc: &RelationFile,
    ops: &AppliedOps,
    metrics: &mut CostMetrics,
) -> StorageResult<(RelationFile, u64, u64)> {
    // Materialize the current closure through the pool (charged), with
    // a hash view for membership tests only — every iteration below
    // walks sorted data, never a hash container.
    let mut old: Vec<(NodeId, NodeId)> = Vec::with_capacity(tc.tuple_count());
    tc.scan_pages(pool, &mut |chunk| old.extend_from_slice(chunk))?;
    let mut tc_set: HashSet<(NodeId, NodeId)> = old.iter().copied().collect();

    // tc-by-destination, for the `(x, v) ← tc(x, u)` seed rule. Built
    // from the sorted closure, so each predecessor list is sorted.
    let needs_preds = !ops.deleted.is_empty() || !ops.inserted.is_empty();
    let mut preds_tc: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    if needs_preds {
        for &(x, y) in &old {
            preds_tc.entry(y).or_default().push(x);
        }
    }

    let inserted_set: HashSet<(NodeId, NodeId)> = ops.inserted.iter().copied().collect();
    let mut deleted_by_src: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &(u, v) in &ops.deleted {
        deleted_by_src.entry(u).or_default().push(v);
    }

    let mut cache: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    let mut round: u64 = 0;

    // ---- DRed step 1: overdelete. A fixpoint over the *old* graph
    // (the probed post-update children, minus this batch's inserts,
    // plus its deletes): every tuple with a derivation through a
    // deleted arc goes into `over`, transitively.
    let mut over: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut over_list: Vec<(NodeId, NodeId)> = Vec::new();
    if !ops.deleted.is_empty() {
        let mut frontier: Vec<(NodeId, NodeId)> = Vec::new();
        for &(u, v) in &ops.deleted {
            let mut seeds = vec![(u, v)];
            if let Some(xs) = preds_tc.get(&u) {
                seeds.extend(xs.iter().map(|&x| (x, v)));
            }
            for t in seeds {
                if tc_set.contains(&t) && over.insert(t) {
                    over_list.push(t);
                    frontier.push(t);
                }
            }
        }
        while !frontier.is_empty() {
            metrics.trace.emit(Event::IterationBegin { i: round });
            round += 1;
            let mut next = Vec::new();
            for (x, z) in frontier.drain(..) {
                metrics.count_union();
                let mut kids = fetch_children(db, pool, metrics, &mut cache, z)?;
                // Reconstruct the pre-update children of z.
                kids.retain(|&y| !inserted_set.contains(&(z, y)));
                if let Some(dels) = deleted_by_src.get(&z) {
                    kids.extend_from_slice(dels);
                    kids.sort_unstable();
                    kids.dedup();
                }
                metrics.count_arcs_bulk(kids.len() as u64);
                for y in kids {
                    metrics.count_tuple_read();
                    let t = (x, y);
                    if tc_set.contains(&t) && over.insert(t) {
                        over_list.push(t);
                        next.push(t);
                    }
                }
            }
            frontier = next;
        }

        // ---- DRed step 2: rederive. Recompute the overdeleted
        // sources' rows over the surviving arcs (the post-update graph
        // minus this batch's inserts — those are the insert phase's
        // job), reinstating tuples with an alternative derivation.
        let affected: BTreeSet<NodeId> = over_list.iter().map(|&(x, _)| x).collect();
        let mut reach_of: HashMap<NodeId, HashSet<NodeId>> = HashMap::new();
        for &x in &affected {
            metrics.trace.emit(Event::IterationBegin { i: round });
            round += 1;
            let mut reach: HashSet<NodeId> = HashSet::new();
            let mut queue: Vec<NodeId> = vec![x];
            let mut seen: HashSet<NodeId> = HashSet::new();
            seen.insert(x);
            while let Some(z) = queue.pop() {
                metrics.count_union();
                let mut kids = fetch_children(db, pool, metrics, &mut cache, z)?;
                kids.retain(|&y| !inserted_set.contains(&(z, y)));
                metrics.count_arcs_bulk(kids.len() as u64);
                for y in kids {
                    metrics.count_tuple_read();
                    if y != x {
                        reach.insert(y);
                    }
                    if seen.insert(y) {
                        queue.push(y);
                    }
                }
            }
            reach_of.insert(x, reach);
        }
        for &t in &over_list {
            let rederived = reach_of.get(&t.0).is_some_and(|r| r.contains(&t.1));
            if rederived {
                metrics.count_duplicate();
            } else {
                tc_set.remove(&t);
            }
        }
    }

    // ---- Seminaive delta propagation for the inserted arcs: seed
    // `(u, v)` and `(x, v)` for surviving `tc(x, u)`, then join the
    // frontier with the post-update relation until it empties.
    if !ops.inserted.is_empty() {
        let mut frontier: Vec<(NodeId, NodeId)> = Vec::new();
        for &(u, v) in &ops.inserted {
            let mut seeds = vec![(u, v)];
            if let Some(xs) = preds_tc.get(&u) {
                seeds.extend(
                    xs.iter()
                        .filter(|&&x| tc_set.contains(&(x, u)))
                        .map(|&x| (x, v)),
                );
            }
            for t in seeds {
                if t.0 == t.1 {
                    continue;
                }
                if tc_set.insert(t) {
                    metrics.count_generated(true);
                    frontier.push(t);
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
                for y in kids {
                    metrics.count_tuple_read();
                    if y == x {
                        continue;
                    }
                    let t = (x, y);
                    if tc_set.insert(t) {
                        metrics.count_generated(true);
                        next.push(t);
                    } else {
                        metrics.count_duplicate();
                    }
                }
            }
            frontier = next;
        }
    }

    // ---- Net delta and closure rewrite.
    let removed = old.iter().filter(|t| !tc_set.contains(t)).count() as u64;
    let inserted = (tc_set.len() as u64 + removed) - old.len() as u64;
    let mut new_tc: Vec<(NodeId, NodeId)> = tc_set.into_iter().collect();
    new_tc.sort_unstable();
    // Free the old file first so the rewrite reuses its pages.
    pool.free_file(tc.file_id())?;
    let mut out = TupleWriter::new(pool, FileKind::Output);
    for &t in &new_tc {
        out.push(pool, t)?;
    }
    let file = out.finish();
    pool.flush_file(file.file_id())?;
    metrics.set_tuple_writes(file.tuple_count() as u64);
    metrics
        .trace
        .emit(Event::DeltaApplied { inserted, removed });
    Ok((file, inserted, removed))
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
    #[should_panic(expected = "cycle")]
    fn cycle_closing_insert_panics() {
        let g = tc_graph::gen::path(5);
        let cfg = SystemConfig::default();
        let mut d = DynamicClosure::build(&g, &cfg).unwrap();
        let _ = d.apply(&[UpdateOp::Insert(4, 0)]);
    }
}
