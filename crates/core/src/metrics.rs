//! The full cost-metric suite (paper §7).
//!
//! The paper's central methodological point is that transitive-closure
//! studies have used many different cost metrics — tuples generated,
//! distinct tuples, tuple I/O, successor-list I/O, union counts, page
//! I/O — and that the cheaper-to-model metrics do *not* predict page I/O.
//! To reproduce that comparison we record all of them on every run.

use crate::Algorithm;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::time::Duration;
use tc_graph::RectangleModel;
pub use tc_trace::PhaseIo;
use tc_trace::{Counts, Event, Tracer};

/// Everything measured about one query execution: the run's [`Counts`]
/// (which it dereferences to, so `metrics.unions` and
/// `metrics.total_io()` read the ledger directly), plus what a trace
/// cannot carry — which algorithm ran and how long it took.
#[derive(Clone, Debug)]
pub struct CostMetrics {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// The run's ledger; `counts == replay(trace)` is the equivalence
    /// oracle the trace layer is built around.
    pub counts: Counts,
    /// Wall-clock time of the simulated run (the paper's "user time"
    /// analogue; the simulation itself is the CPU work).
    pub elapsed: Duration,
    /// Event-trace sink the `count_*` methods emit through. Disabled by
    /// default; the engine arms it from the [`crate::SystemConfig`] for
    /// the duration of the run and disarms it before returning.
    pub(crate) trace: Tracer,
}

impl Deref for CostMetrics {
    type Target = Counts;

    fn deref(&self) -> &Counts {
        &self.counts
    }
}

impl DerefMut for CostMetrics {
    fn deref_mut(&mut self) -> &mut Counts {
        &mut self.counts
    }
}

impl CostMetrics {
    /// Fresh zeroed metrics for `algorithm`.
    pub fn new(algorithm: Algorithm) -> CostMetrics {
        CostMetrics::traced(algorithm, Tracer::disabled())
    }

    /// Fresh zeroed metrics whose `count_*` methods also emit through
    /// `tracer`.
    pub fn traced(algorithm: Algorithm, tracer: Tracer) -> CostMetrics {
        CostMetrics {
            algorithm,
            counts: Counts::default(),
            elapsed: Duration::ZERO,
            trace: tracer,
        }
    }

    /// Marking percentage: fraction of processed arcs that were marked
    /// (Figure 11).
    pub fn marking_pct(&self) -> f64 {
        if self.arcs_processed == 0 {
            0.0
        } else {
            self.arcs_marked as f64 / self.arcs_processed as f64
        }
    }

    /// Selection efficiency `stc / tc` (§6.3.2, Figure 9): 1.0 means
    /// every generated tuple contributed to the answer.
    pub fn selection_efficiency(&self) -> f64 {
        if self.tuples_generated == 0 {
            0.0
        } else {
            self.source_tuples as f64 / self.tuples_generated as f64
        }
    }

    /// Mean locality of the arcs actually expanded (Figure 12).
    pub fn avg_unmarked_locality(&self) -> f64 {
        if self.unmarked_locality_count == 0 {
            0.0
        } else {
            self.unmarked_locality_sum / self.unmarked_locality_count as f64
        }
    }

    /// Buffer hit ratio of the computation phase (Figure 13 (c)/(d)):
    /// read-request granularity, matching the paper's "successor list
    /// page requests ... satisfied from the buffer pool".
    pub fn compute_hit_ratio(&self) -> f64 {
        self.buffer_compute.read_hit_ratio()
    }

    /// Tuple-level operations performed — the deterministic CPU-work
    /// proxy for Table 3's CPU-vs-I/O comparison. Wall-clock `elapsed`
    /// varies run to run (and with the host), so report fragments use
    /// this count (and [`CostMetrics::estimated_cpu_seconds`]) instead:
    /// it is a pure function of the simulated execution and therefore
    /// bit-identical across reruns, machines and worker counts.
    pub fn cpu_ops(&self) -> u64 {
        self.tuple_reads + self.tuple_writes + self.duplicates + self.unions + self.arcs_processed
    }

    /// Estimated CPU seconds at a deliberately generous 1 µs per
    /// tuple-level operation (mid-90s hardware would be slower). The
    /// paper's Table 3 point — estimated I/O time dwarfs CPU time —
    /// survives the generosity by orders of magnitude.
    pub fn estimated_cpu_seconds(&self) -> f64 {
        self.cpu_ops() as f64 * 1e-6
    }

    // ---- Count-and-emit ----
    //
    // Each counted unit of work goes through exactly one of these, which
    // builds the event, folds it into the ledger with the same
    // `Counts::on` that replay uses, and emits it: what the counter does
    // and what the event means are one definition. The event is a
    // compile-time constant at each site, so the fold compiles to the
    // bare increment; with tracing disabled the emit is a single branch
    // on a `None`.

    #[inline(always)]
    fn count(&mut self, ev: Event) {
        self.counts.on(&ev);
        self.trace.emit(ev);
    }

    /// One successor-list union.
    #[inline]
    pub fn count_union(&mut self) {
        self.count(Event::Union);
    }

    /// One successor-list fetch.
    #[inline]
    pub fn count_list_fetch(&mut self) {
        self.count(Event::ListFetch);
    }

    /// One arc considered for expansion; `marked` if the marking
    /// optimization skipped it.
    #[inline]
    pub fn count_arc(&mut self, marked: bool) {
        self.count(Event::ArcProcessed { marked });
    }

    /// `n` arcs processed in bulk (none marked).
    #[inline]
    pub fn count_arcs_bulk(&mut self, n: u64) {
        self.count(Event::ArcsProcessed { n });
    }

    /// One entry read from a successor structure.
    #[inline]
    pub fn count_tuple_read(&mut self) {
        self.count(Event::TupleRead);
    }

    /// `n` entries read from successor structures in bulk.
    #[inline]
    pub fn count_tuple_reads(&mut self, n: u64) {
        self.count(Event::TupleReads { n });
    }

    /// One distinct tuple generated; `source` if it belongs to a
    /// source-node result.
    #[inline]
    pub fn count_generated(&mut self, source: bool) {
        self.count(Event::Generated { source });
    }

    /// One duplicate derivation.
    #[inline]
    pub fn count_duplicate(&mut self) {
        self.count(Event::Duplicate);
    }

    /// `n` duplicate derivations in bulk.
    #[inline]
    pub fn count_duplicates(&mut self, n: u64) {
        self.count(Event::Duplicates { n });
    }

    /// `n` entries pruned by a tree union.
    #[inline]
    pub fn count_pruned(&mut self, n: u64) {
        self.count(Event::Pruned { n });
    }

    /// One expanded (unmarked) arc's level distance.
    #[inline]
    pub fn count_locality(&mut self, delta: f64) {
        self.count(Event::Locality { delta });
    }

    /// The run's tuple-write total (once per run).
    #[inline]
    pub fn set_tuple_writes(&mut self, n: u64) {
        self.count(Event::TupleWrites { n });
    }

    /// Magic-graph node count (assignment).
    #[inline]
    pub fn set_magic_nodes(&mut self, n: u64) {
        self.count(Event::MagicNodes { n });
    }

    /// Magic-graph arc count (assignment).
    #[inline]
    pub fn set_magic_arcs(&mut self, n: u64) {
        self.count(Event::MagicArcs { n });
    }

    /// Rectangle model of the processed graph (assignment).
    pub fn set_rect(&mut self, rect: RectangleModel) {
        self.count(Event::Rect {
            height: rect.height,
            width: rect.width,
            max_level: rect.max_level,
            arcs: rect.arcs as u64,
            nodes: rect.nodes as u64,
        });
    }
}

/// The reachability-index builder charges its logical work through the
/// same count-and-emit methods as everything else, so the
/// `metrics ≡ replay(trace)` oracle covers index construction too.
impl tc_reach::ReachMeter for CostMetrics {
    fn arc_scanned(&mut self) {
        self.count_arc(false);
    }

    fn row_union(&mut self) {
        self.count_union();
    }

    fn entries_read(&mut self, n: u64) {
        self.count_tuple_reads(n);
    }
}

impl fmt::Display for CostMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: total I/O {} (restructure {}r+{}w, compute {}r+{}w), est. {:.1}s",
            self.algorithm,
            self.total_io(),
            self.restructure_io.reads,
            self.restructure_io.writes,
            self.compute_io.reads,
            self.compute_io.writes,
            self.estimated_io_seconds,
        )?;
        writeln!(
            f,
            "  tuples {} (+{} dup), unions {}, marked {}/{} ({:.0}%), list fetches {}",
            self.tuples_generated,
            self.duplicates,
            self.unions,
            self.arcs_marked,
            self.arcs_processed,
            self.marking_pct() * 100.0,
            self.list_fetches,
        )?;
        write!(
            f,
            "  answer {} tuples, sel.eff {:.2}, hit ratio {:.2}, elapsed {:.3}s",
            self.answer_tuples,
            self.selection_efficiency(),
            self.compute_hit_ratio(),
            self.elapsed.as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let mut m = CostMetrics::new(Algorithm::Btc);
        assert_eq!(m.marking_pct(), 0.0);
        assert_eq!(m.selection_efficiency(), 0.0);
        m.arcs_processed = 10;
        m.arcs_marked = 4;
        m.tuples_generated = 100;
        m.source_tuples = 25;
        m.unmarked_locality_sum = 18.0;
        m.unmarked_locality_count = 6;
        assert!((m.marking_pct() - 0.4).abs() < 1e-12);
        assert!((m.selection_efficiency() - 0.25).abs() < 1e-12);
        assert!((m.avg_unmarked_locality() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn total_io_sums_phases() {
        let mut m = CostMetrics::new(Algorithm::Btc);
        m.restructure_io = PhaseIo {
            reads: 3,
            writes: 2,
        };
        m.compute_io = PhaseIo {
            reads: 10,
            writes: 5,
        };
        assert_eq!(m.total_io(), 20);
    }

    #[test]
    fn display_is_multiline_and_complete() {
        let m = CostMetrics::new(Algorithm::Spn);
        let s = format!("{m}");
        assert!(s.contains("SPN"));
        assert!(s.contains("total I/O"));
        assert!(s.contains("sel.eff"));
    }
}
