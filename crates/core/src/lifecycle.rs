//! The metered-run lifecycle: the envelope every counted run shares.
//!
//! A query execution ([`crate::Database::run`]) and a maintenance batch
//! ([`crate::DynamicClosure::apply`]) are the same kind of run (paper §4:
//! every algorithm pays restructuring and computation under one
//! accounting). [`MeteredRun`] owns what they share and nothing else:
//!
//! 1. [`MeteredRun::arm`] — root span, fault plan and tracer on the
//!    store, traced metrics, `RunBegin`, `PhaseBegin(Restructure)`, the
//!    run's counter baseline.
//! 2. [`MeteredRun::open_pool`] — the run's buffer pool, traced like the
//!    store. Opening it emits and counts nothing, so a caller may work
//!    on the raw store first: the store retries its transfers either
//!    way.
//! 3. [`MeteredRun::enter_compute`] — the phase boundary: the two
//!    boundary events at the exact point the counters are snapshot, so
//!    replay's phase attribution reproduces the snapshot deltas.
//! 4. [`MeteredRun::finish`] — `PhaseEnd(Compute)`, `RunEnd`, the store
//!    disarmed, synced and back in the database *whatever the body
//!    returned*, then the delta arithmetic into [`CostMetrics`]: the
//!    phase split, the run's whole `DiskStats` delta (page I/O per kind,
//!    retries, fault tallies: the store folds each into its counters as
//!    it emits it) and the compute-phase buffer figure, which is the
//!    whole run's where [`compute_buffer_is_whole_run`] says so (SRCH).
//!
//! The envelope events, the fault plan and the I/O-time estimate appear
//! nowhere else in this crate (CI greps for it). What differs per caller
//! — which algorithm runs between the calls, the answer, validation —
//! stays with the caller.

use crate::config::SystemConfig;
use crate::database::Database;
use crate::metrics::{CostMetrics, PhaseIo};
use crate::Algorithm;
use std::time::Instant;
use tc_buffer::{BufferPool, BufferStats};
use tc_obs::SpanGuard;
use tc_storage::{DiskStats, FaultPlan, PageStore, StorageError, StorageResult, MS_PER_IO};
use tc_trace::{compute_buffer_is_whole_run, Event, Phase, Tracer};

/// One armed run, between [`MeteredRun::arm`] and [`MeteredRun::finish`].
pub(crate) struct MeteredRun<'a> {
    cfg: &'a SystemConfig,
    start: Instant,
    /// The run's counted work; its `count_*` methods emit through the
    /// run's tracer until `finish` strips it.
    pub(crate) metrics: CostMetrics,
    /// The store's counters are cumulative across a database's runs;
    /// everything reported is a delta against this.
    disk_base: DiskStats,
    /// Counters at the phase boundary. Until `enter_compute` the
    /// boundary sits at the run's start: nothing is restructuring.
    disk_at_boundary: DiskStats,
    buffer_at_boundary: BufferStats,
    // Wall-clock spans (observability only, never in a digest). Declared
    // phase before root: fields drop in order, and the collector closes
    // spans innermost first.
    phase_span: Option<SpanGuard>,
    _root_span: SpanGuard,
}

impl<'a> MeteredRun<'a> {
    /// Detaches `db`'s store and arms it for one run of `algorithm`
    /// under the root span `root`.
    pub(crate) fn arm(
        db: &mut Database,
        root: &'static str,
        algorithm: Algorithm,
        cfg: &'a SystemConfig,
    ) -> StorageResult<(MeteredRun<'a>, Box<dyn PageStore>)> {
        let start = Instant::now();
        let root_span = cfg.obs.enter(root);
        let mut store = db.take_store()?;
        if let Some(fault) = &cfg.fault {
            store.set_fault_plan(FaultPlan::new(fault.clone()));
        }
        store.set_tracer(cfg.trace.clone());
        cfg.trace.emit(Event::RunBegin {
            algorithm,
            ms_per_io: MS_PER_IO,
        });
        cfg.trace.emit(Event::PhaseBegin {
            phase: Phase::Restructure,
        });
        let disk_base = store.stats().clone();
        let run = MeteredRun {
            cfg,
            start,
            metrics: CostMetrics::traced(algorithm, cfg.trace.clone()),
            disk_at_boundary: disk_base.clone(),
            disk_base,
            buffer_at_boundary: BufferStats::default(),
            phase_span: Some(cfg.obs.enter("restructure")),
            _root_span: root_span,
        };
        Ok((run, store))
    }

    /// Wraps the armed store in the run's buffer pool.
    pub(crate) fn open_pool(&self, store: Box<dyn PageStore>) -> BufferPool {
        let cfg = self.cfg;
        let mut pool = BufferPool::with_store(store, cfg.buffer_pages, cfg.page_policy);
        pool.set_tracer(cfg.trace.clone());
        pool
    }

    /// The phase boundary: restructuring ends, computation begins.
    pub(crate) fn enter_compute(&mut self, pool: &BufferPool) {
        self.cfg.trace.emit(Event::PhaseEnd {
            phase: Phase::Restructure,
        });
        self.cfg.trace.emit(Event::PhaseBegin {
            phase: Phase::Compute,
        });
        self.disk_at_boundary = pool.store().stats().clone();
        self.buffer_at_boundary = pool.stats().clone();
        // Close "restructure" before opening "compute", so the two are
        // siblings under the root span, not nested.
        self.phase_span = None;
        self.phase_span = Some(self.cfg.obs.enter("compute"));
    }

    /// Closes the run. The store returns to `db` disarmed and synced
    /// even when `outcome` is an error, so a failed run never poisons
    /// the database for the next one; the body's error wins over a sync
    /// error. On success, returns the body's value, the assembled
    /// metrics (tracer stripped: the trace belongs to the run, not to
    /// whoever clones the metrics afterwards).
    pub(crate) fn finish<T, E: From<StorageError>>(
        mut self,
        db: &mut Database,
        pool: BufferPool,
        outcome: Result<T, E>,
    ) -> Result<(T, CostMetrics), E> {
        self.phase_span = None;
        let mut metrics = self.metrics;
        let disk_total = pool.store().stats().clone();
        metrics.buffer = pool.stats().clone();
        self.cfg.trace.emit(Event::PhaseEnd {
            phase: Phase::Compute,
        });
        self.cfg.trace.emit(Event::RunEnd);
        let mut store = pool.into_store_discard();
        store.set_tracer(Tracer::disabled());
        store.clear_fault_plan();
        // Durability point for real backends: a completed run's flushed
        // pages and the store metadata survive a crash from here on
        // (never counted or traced; free on the simulator).
        let synced = store.sync();
        db.restore_store(store);
        let value = outcome?;
        synced?;

        let phase_io = |delta: DiskStats| PhaseIo {
            reads: delta.reads,
            writes: delta.writes,
        };
        metrics.restructure_io = phase_io(self.disk_at_boundary.since(&self.disk_base));
        metrics.compute_io = phase_io(disk_total.since(&self.disk_at_boundary));
        metrics.disk = disk_total.since(&self.disk_base);
        metrics.buffer_compute = if compute_buffer_is_whole_run(metrics.algorithm) {
            metrics.buffer.clone()
        } else {
            metrics.buffer.since(&self.buffer_at_boundary)
        };
        metrics.elapsed = self.start.elapsed();
        metrics.estimated_io_seconds = estimate_seconds(metrics.total_io());
        metrics.trace = Tracer::disabled();
        Ok((value, metrics))
    }
}

/// Estimated I/O time in seconds for `ios` page transfers at
/// [`MS_PER_IO`].
fn estimate_seconds(ios: u64) -> f64 {
    ios as f64 * MS_PER_IO / 1000.0
}
