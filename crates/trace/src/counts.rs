//! The ledger of counts: the cost-metric suite (paper §7) and the one
//! fold that says what an event *means*.
//!
//! The paper's central methodological point is that transitive-closure
//! studies have used many different cost metrics — tuples generated,
//! distinct tuples, tuple I/O, successor-list I/O, union counts, page
//! I/O — and that the cheaper-to-model metrics do *not* predict page I/O.
//! To reproduce that comparison every run records all of them, in one
//! [`Counts`].
//!
//! Every counter table is folded from the events, and each has exactly
//! one fold: [`DiskStats::on`] for the page store's transfers, retries
//! and faults, [`BufferStats::on`] for the buffer pool's requests and
//! replacements, and [`Counts::on`] for a run's whole ledger, which
//! delegates to the other two. Whoever counts builds the event, folds it
//! into its own table and emits it — the store, the pool, the engine's
//! `count_*` methods; [`crate::replay()`] and the profile fold feed the
//! same functions from a recorded stream. A counter bumped without its
//! event, or two folds that disagree about an event, cannot be written.
//!
//! ## Fold rules
//!
//! * Phase attribution: from a `RunBegin` to `PhaseEnd(Restructure)`
//!   page transfers are restructuring, after it computation — the
//!   engine emits that boundary event at the exact point it snapshots
//!   its counters. `buffer_compute` accumulates while the fold is in the
//!   computation phase.
//! * Buffer identities: `requests = hits + misses` (a fresh-page
//!   allocation counts as a non-read miss), `read_requests` counts only
//!   read accesses, evictions/write-backs/flushes are explicit events.
//! * Floating-point fields are reproduced by performing the *same*
//!   operations in the *same* order as the engine (stream-order
//!   summation for locality, the identical `ios * ms_per_io / 1000`
//!   formula for estimated I/O time), so they are bit-identical, not
//!   approximately equal.
//! * `SRCH` has no restructuring payoff, so its compute-phase buffer
//!   figure is its whole run: one algorithm-keyed exception, stated once
//!   in [`compute_buffer_is_whole_run`], which the run lifecycle asks too.
//! * A stream may carry several runs (`tcq update --trace`, condensed
//!   sub-runs): every counter accumulates across them, `TupleWrites`
//!   included (the engine emits it exactly once per run), and each
//!   `RunBegin` returns the fold to the restructuring phase.
//!   `MagicNodes`/`MagicArcs`/`Rect` describe one graph and keep
//!   assignment semantics (last value wins).

use crate::event::{Algorithm, Event, Phase};
use std::fmt;

/// Physical page I/O of one execution phase (or any other bucket of
/// page transfers).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct PhaseIo {
    /// Physical page reads.
    pub reads: u64,
    /// Physical page writes.
    pub writes: u64,
}

impl PhaseIo {
    /// Total page transfers.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Counts one transfer.
    #[inline]
    pub fn bump(&mut self, write: bool) {
        if write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
    }

    /// Counter-wise sum.
    pub fn plus(&self, other: &PhaseIo) -> PhaseIo {
        PhaseIo {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
        }
    }
}

/// Physical I/O counters of a page store, overall and by file
/// [`Kind`](crate::Kind), with the retries and faults behind them: the
/// fold of the store's events, [`DiskStats::on`]. Snapshots subtract
/// cleanly, which is how a run takes its delta of a store's counters.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct DiskStats {
    /// Total physical page reads.
    pub reads: u64,
    /// Total physical page writes.
    pub writes: u64,
    /// Physical reads by file kind (indexed by [`Kind::idx`](crate::Kind::idx)).
    pub reads_by_kind: [u64; 6],
    /// Physical writes by file kind (indexed by [`Kind::idx`](crate::Kind::idx)).
    pub writes_by_kind: [u64; 6],
    /// Transfer re-attempts after transient faults (zero unless a fault
    /// plan is armed).
    pub retries: u64,
    /// Accounted backoff of those re-attempts, in milliseconds.
    pub retry_backoff_ms: u64,
    /// Faults an armed plan injected: failed attempts and torn writes.
    pub faults_injected: u64,
    /// Corrupted page images caught by checksum verification.
    pub corruptions_detected: u64,
}

impl DiskStats {
    /// Total physical I/Os (reads + writes).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &DiskStats) -> DiskStats {
        let by_kind = |now: &[u64; 6], then: &[u64; 6]| std::array::from_fn(|i| now[i] - then[i]);
        DiskStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            reads_by_kind: by_kind(&self.reads_by_kind, &earlier.reads_by_kind),
            writes_by_kind: by_kind(&self.writes_by_kind, &earlier.writes_by_kind),
            retries: self.retries - earlier.retries,
            retry_backoff_ms: self.retry_backoff_ms - earlier.retry_backoff_ms,
            faults_injected: self.faults_injected - earlier.faults_injected,
            corruptions_detected: self.corruptions_detected - earlier.corruptions_detected,
        }
    }

    /// Folds one storage event; any other event is not this table's to
    /// count. `inline(always)` for the same reason as [`Counts::on`]: the
    /// store builds each event in place, so only its increment remains.
    #[inline(always)]
    pub fn on(&mut self, ev: &Event) {
        match *ev {
            Event::PageRead { kind, .. } => {
                self.reads += 1;
                self.reads_by_kind[kind.idx()] += 1;
            }
            Event::PageWrite { kind, .. } => {
                self.writes += 1;
                self.writes_by_kind[kind.idx()] += 1;
            }
            Event::Retry { n, backoff_ms } => {
                self.retries += n;
                self.retry_backoff_ms += backoff_ms;
            }
            Event::FaultInjected { .. } => self.faults_injected += 1,
            Event::CorruptionDetected { .. } => self.corruptions_detected += 1,
            _ => {}
        }
    }
}

/// Whether a run of `algorithm` reports its whole-run buffer figure as
/// the compute phase's: SRCH does all its work in what the framework
/// calls restructuring (the paper excludes that phase from the hit ratio
/// only "for BTC and JKB2"). The fold and the run lifecycle both ask here.
pub fn compute_buffer_is_whole_run(algorithm: Algorithm) -> bool {
    algorithm == Algorithm::Srch
}

/// Logical request and replacement counters of a buffer pool.
///
/// Physical I/O lives on the wrapped disk's [`DiskStats`]; together they
/// give the paper's buffered-I/O picture: `misses` become physical
/// reads, `dirty_writebacks` plus final flushes become physical writes,
/// and the hit ratio (Figure 13 (c)/(d)) is `hits / requests`.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BufferStats {
    /// Logical page requests (`with_page` + `with_page_mut` + pins).
    pub requests: u64,
    /// Requests satisfied from the pool.
    pub hits: u64,
    /// Requests that had to read the page from disk (or allocated it).
    pub misses: u64,
    /// Read-only page requests (`with_page`): the paper's "successor
    /// list page requests". Write requests (appends) are almost always
    /// hot and would drown the signal.
    pub read_requests: u64,
    /// Read-only requests satisfied from the pool.
    pub read_hits: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Evictions that had to write a dirty page back first.
    pub dirty_writebacks: u64,
    /// Pages written by an explicit flush (end-of-run write-out).
    pub flush_writes: u64,
}

impl BufferStats {
    /// Fraction of requests satisfied from the pool (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Fraction of *read* requests satisfied from the pool — the paper's
    /// Figure 13 hit ratio ("the percentage of successor list page
    /// requests ... satisfied from the buffer pool").
    pub fn read_hit_ratio(&self) -> f64 {
        if self.read_requests == 0 {
            0.0
        } else {
            self.read_hits as f64 / self.read_requests as f64
        }
    }

    /// Read-hit ratio in basis points (hundredths of a percent), or
    /// `None` when there were no read requests. Integer arithmetic,
    /// rounded half away from zero.
    pub fn read_hit_bp(&self) -> Option<u64> {
        if self.read_requests == 0 {
            return None;
        }
        Some((self.read_hits * 10_000 + self.read_requests / 2) / self.read_requests)
    }

    fn zip(&self, other: &BufferStats, f: impl Fn(u64, u64) -> u64) -> BufferStats {
        BufferStats {
            requests: f(self.requests, other.requests),
            hits: f(self.hits, other.hits),
            misses: f(self.misses, other.misses),
            read_requests: f(self.read_requests, other.read_requests),
            read_hits: f(self.read_hits, other.read_hits),
            evictions: f(self.evictions, other.evictions),
            dirty_writebacks: f(self.dirty_writebacks, other.dirty_writebacks),
            flush_writes: f(self.flush_writes, other.flush_writes),
        }
    }

    /// Counter-wise difference `self - earlier` for phase attribution.
    pub fn since(&self, earlier: &BufferStats) -> BufferStats {
        self.zip(earlier, |now, then| now - then)
    }

    /// Counter-wise sum.
    pub fn plus(&self, other: &BufferStats) -> BufferStats {
        self.zip(other, |a, b| a + b)
    }

    /// Folds one buffer-manager event; any other event is not this
    /// table's to count. `inline(always)`: the pool's hit path builds
    /// its event in place and keeps only the increments.
    #[inline(always)]
    pub fn on(&mut self, ev: &Event) {
        match *ev {
            Event::BufHit { read, .. } => {
                self.requests += 1;
                self.hits += 1;
                if read {
                    self.read_requests += 1;
                    self.read_hits += 1;
                }
            }
            Event::BufMiss { read, .. } => {
                self.requests += 1;
                self.misses += 1;
                if read {
                    self.read_requests += 1;
                }
            }
            Event::Evict { dirty, .. } => {
                self.evictions += 1;
                if dirty {
                    self.dirty_writebacks += 1;
                }
            }
            Event::FlushWrite { .. } => self.flush_writes += 1,
            _ => {}
        }
    }
}

impl fmt::Display for BufferStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests, {} hits ({:.1}%), {} misses, {} evictions ({} dirty)",
            self.requests,
            self.hits,
            self.hit_ratio() * 100.0,
            self.misses,
            self.evictions,
            self.dirty_writebacks
        )
    }
}

/// Rectangle-model statistics of the processed graph, as carried by
/// `Event::Rect` (`tc_graph::RectangleModel` computes them).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Mean node level `H(G)`.
    pub height: f64,
    /// `|G| / H(G)`.
    pub width: f64,
    /// Maximum node level.
    pub max_level: u32,
    /// Arc count.
    pub arcs: u64,
    /// Node count.
    pub nodes: u64,
}

/// Declares [`Counts`] from one field list: the struct, its `==` and
/// [`Counts::diff`] all read the list, so a counter added here is
/// compared and reported without a second edit.
macro_rules! ledger {
    ($( $(#[$doc:meta])* $field:ident : $ty:ty ),* $(,)?) => {
        /// Everything counted about one run — or about every run of a
        /// stream, when several were folded into it.
        ///
        /// Equality compares the counters only, not where the fold
        /// stands in its stream.
        #[derive(Clone, Debug, Default)]
        pub struct Counts {
            $( $(#[$doc])* pub $field: $ty, )*
            /// Phase the fold stands in.
            phase: Phase,
            /// Whether the current run's buffer traffic all counts as
            /// computation (`SRCH`).
            whole_run_compute: bool,
            /// I/O model of the current run, from its `RunBegin`.
            ms_per_io: f64,
        }

        impl PartialEq for Counts {
            fn eq(&self, other: &Counts) -> bool {
                $( self.$field == other.$field )&&*
            }
        }

        impl Counts {
            /// Names every field on which `self` and `other` disagree —
            /// the actionable form of a failed `counts == replay(trace)`
            /// assertion.
            pub fn diff(&self, other: &Counts) -> Vec<String> {
                let mut out = Vec::new();
                $( if self.$field != other.$field {
                    out.push(format!(
                        concat!(stringify!($field), ": {:?} != {:?}"),
                        self.$field, other.$field
                    ));
                } )*
                out
            }
        }
    };
}

ledger! {
    // ---- Page I/O (the primary metric) ----
    /// Physical I/O of the restructuring (preprocessing) phase.
    restructure_io: PhaseIo,
    /// Physical I/O of the computation (expansion) phase, including the
    /// final write-out.
    compute_io: PhaseIo,
    /// Physical I/O of the whole run, by file kind, with its retry and
    /// fault tallies (zero on fault-free runs).
    disk: DiskStats,

    // ---- The "misleading" metrics (§7) ----
    /// Distinct tuples generated (insertions into successor structures);
    /// the `tc` of selection efficiency.
    tuples_generated: u64,
    /// Duplicate derivations (scanned entries already present).
    duplicates: u64,
    /// Generated tuples that belong to source-node results; the `stc` of
    /// selection efficiency (§6.3.2).
    source_tuples: u64,
    /// Successor-list unions performed (§6.3.3, Figure 10).
    unions: u64,
    /// Arcs considered for expansion (marked + unmarked).
    arcs_processed: u64,
    /// Arcs skipped by the marking optimization (Figure 11).
    arcs_marked: u64,
    /// Entries read from successor structures ("tuple I/O" in).
    tuple_reads: u64,
    /// Entries appended to successor structures ("tuple I/O" out).
    tuple_writes: u64,
    /// Entries a tree union pruned without processing (SPN/JKB savings).
    entries_pruned: u64,
    /// Successor lists fetched ("successor list I/O").
    list_fetches: u64,

    // ---- Locality (Figure 12) ----
    /// Sum of `level(i) − level(j)` over unmarked (expanded) arcs.
    unmarked_locality_sum: f64,
    /// Number of unmarked arcs in that sum.
    unmarked_locality_count: u64,

    // ---- Buffer behaviour (Figure 13) ----
    /// Buffer statistics of the whole run.
    buffer: BufferStats,
    /// Buffer statistics of the computation phase only (the paper's hit
    /// ratio "does not take into account the preprocessing phase");
    /// whole-run for `SRCH`.
    buffer_compute: BufferStats,

    // ---- Workload characterization ----
    /// Nodes in the (magic) graph processed.
    magic_nodes: u64,
    /// Arcs in the (magic) graph processed.
    magic_arcs: u64,
    /// Rectangle model of the (magic) graph, when the run computed one.
    rect: Option<Rect>,

    // ---- Result & time ----
    /// Distinct answer tuples produced.
    answer_tuples: u64,
    /// Estimated I/O time at the configured ms-per-I/O (Table 3).
    estimated_io_seconds: f64,
}

impl Counts {
    /// Total physical page I/O — the paper's primary cost measure.
    pub fn total_io(&self) -> u64 {
        self.restructure_io.total() + self.compute_io.total()
    }

    /// Tuple reads plus tuple writes — the paper's "tuple I/O".
    pub fn tuple_io(&self) -> u64 {
        self.tuple_reads + self.tuple_writes
    }

    /// Phase the fold stands in: restructuring from a `RunBegin` to the
    /// next `PhaseEnd(Restructure)`, computation after it.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// One physical page transfer: the whole-run table's, and the
    /// current phase's.
    #[inline]
    fn transfer(&mut self, ev: &Event, write: bool) {
        self.disk.on(ev);
        match self.phase {
            Phase::Restructure => self.restructure_io.bump(write),
            Phase::Compute => self.compute_io.bump(write),
        }
        // Same formula, same operand order as the run lifecycle's
        // `estimate_seconds` over `tc_storage::MS_PER_IO`.
        self.estimated_io_seconds = self.total_io() as f64 * self.ms_per_io / 1000.0;
    }

    /// Folds one event into the ledger: the single definition of what
    /// each event counts. `inline(always)`, not `inline`: at a call site
    /// that builds the event in place (the engine's `count_*` methods,
    /// tens of millions of calls a run) the match then folds away and
    /// only that event's increment remains, whereas the hint alone
    /// leaves a call to the whole match there (it is past the inliner's
    /// size threshold).
    #[inline(always)]
    pub fn on(&mut self, ev: &Event) {
        match *ev {
            Event::RunBegin {
                algorithm,
                ms_per_io,
            } => {
                self.phase = Phase::Restructure;
                self.whole_run_compute = compute_buffer_is_whole_run(algorithm);
                self.ms_per_io = ms_per_io;
            }
            Event::PhaseEnd { phase } => {
                if phase == Phase::Restructure {
                    self.phase = Phase::Compute;
                }
            }
            Event::PageRead { .. } => self.transfer(ev, false),
            Event::PageWrite { .. } => self.transfer(ev, true),
            Event::FaultInjected { .. }
            | Event::CorruptionDetected { .. }
            | Event::Retry { .. } => self.disk.on(ev),
            Event::BufHit { .. }
            | Event::BufMiss { .. }
            | Event::Evict { .. }
            | Event::FlushWrite { .. } => self.buffer_event(ev),
            Event::ListFetch => self.list_fetches += 1,
            Event::Union => self.unions += 1,
            Event::ArcProcessed { marked } => {
                self.arcs_processed += 1;
                if marked {
                    self.arcs_marked += 1;
                }
            }
            Event::ArcsProcessed { n } => self.arcs_processed += n,
            Event::TupleRead => self.tuple_reads += 1,
            Event::TupleReads { n } => self.tuple_reads += n,
            Event::Generated { source } => {
                self.tuples_generated += 1;
                if source {
                    self.source_tuples += 1;
                }
            }
            Event::Duplicate => self.duplicates += 1,
            Event::Duplicates { n } => self.duplicates += n,
            Event::Pruned { n } => self.entries_pruned += n,
            Event::Locality { delta } => {
                self.unmarked_locality_sum += delta;
                self.unmarked_locality_count += 1;
            }
            Event::TupleEmit { .. } => self.answer_tuples += 1,
            Event::TupleWrites { n } => self.tuple_writes += n,
            Event::MagicNodes { n } => self.magic_nodes = n,
            Event::MagicArcs { n } => self.magic_arcs = n,
            Event::Rect {
                height,
                width,
                max_level,
                arcs,
                nodes,
            } => {
                self.rect = Some(Rect {
                    height,
                    width,
                    max_level,
                    arcs,
                    nodes,
                })
            }
            // Structure/observability events with no count.
            Event::RunEnd
            | Event::PhaseBegin { .. }
            | Event::IterationBegin { .. }
            | Event::Pin { .. }
            | Event::Unpin { .. }
            | Event::PageAlloc { .. }
            | Event::PageFreed { .. }
            | Event::UpdateApply { .. }
            | Event::DeltaApplied { .. }
            | Event::ChainAssigned { .. }
            | Event::ChainsBuilt { .. }
            | Event::LabelsBuilt { .. } => {}
        }
    }

    /// A buffer-manager event: whole-run, and compute-phase while the
    /// fold is in it.
    #[inline]
    fn buffer_event(&mut self, ev: &Event) {
        self.buffer.on(ev);
        if self.phase == Phase::Compute || self.whole_run_compute {
            self.buffer_compute.on(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio() {
        let s = BufferStats {
            requests: 10,
            hits: 7,
            misses: 3,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(BufferStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn since_subtracts() {
        let a = BufferStats {
            requests: 10,
            hits: 7,
            misses: 3,
            read_requests: 4,
            read_hits: 2,
            evictions: 1,
            dirty_writebacks: 1,
            flush_writes: 0,
        };
        let b = BufferStats {
            requests: 25,
            hits: 15,
            misses: 10,
            read_requests: 9,
            read_hits: 6,
            evictions: 4,
            dirty_writebacks: 2,
            flush_writes: 5,
        };
        let d = b.since(&a);
        assert_eq!(d.requests, 15);
        assert_eq!(d.hits, 8);
        assert_eq!(d.read_requests, 5);
        assert_eq!(d.read_hits, 4);
        assert_eq!(d.flush_writes, 5);
        assert!((d.read_hit_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(d.plus(&a), b);
    }
}
