//! Replay: re-deriving the cost-metric suite from an event stream.
//!
//! [`replay`] folds a trace into a [`Counts`] using *only* the events —
//! no access to the engine's counters. Every counter table agrees with
//! the run's by construction: the engine's logical counters, the store's
//! [`DiskStats`](crate::DiskStats) and the pool's
//! [`BufferStats`](crate::BufferStats) are all the fold of the events
//! their owner emitted, through the same `on` functions replay calls.
//! What the equivalence `counts == replay(trace)` still checks is what
//! the engine derives another way: the phase split (snapshot deltas at
//! `enter_compute` vs. the position of `PhaseEnd(Restructure)`), the
//! answer count (the collector vs. `TupleEmit`) and the I/O-time
//! estimate. A misplaced phase boundary, a lost answer tuple or a bug in
//! the snapshot arithmetic breaks it.

use crate::counts::Counts;
use crate::event::Event;

/// Why a stream could not be replayed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The stream does not start with `RunBegin` (or is empty).
    MissingRunBegin,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::MissingRunBegin => {
                write!(f, "trace does not start with a RunBegin event")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Folds an event stream into the counts it implies. The stream must
/// begin with `RunBegin`; everything else is tolerated in any order, so
/// partial traces of crashed runs still fold, and a stream of several
/// runs folds into their sum.
pub fn replay(events: impl IntoIterator<Item = Event>) -> Result<Counts, ReplayError> {
    let mut events = events.into_iter().peekable();
    if !matches!(events.peek(), Some(Event::RunBegin { .. })) {
        return Err(ReplayError::MissingRunBegin);
    }
    let mut counts = Counts::default();
    for ev in events {
        counts.on(&ev);
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::PhaseIo;
    use crate::event::{Kind, Phase};

    #[test]
    fn rejects_streams_without_run_begin() {
        assert_eq!(replay([]), Err(ReplayError::MissingRunBegin));
        assert_eq!(replay([Event::RunEnd]), Err(ReplayError::MissingRunBegin));
    }

    #[test]
    fn folds_a_hand_built_stream() {
        let trace = [
            Event::RunBegin {
                algorithm: crate::Algorithm::Btc,
                ms_per_io: 20.0,
            },
            Event::PhaseBegin {
                phase: Phase::Restructure,
            },
            Event::BufMiss {
                page: 0,
                read: true,
            },
            Event::PageRead {
                page: 0,
                kind: Kind::Relation,
            },
            Event::Generated { source: true },
            Event::PhaseEnd {
                phase: Phase::Restructure,
            },
            Event::PhaseBegin {
                phase: Phase::Compute,
            },
            Event::BufHit {
                page: 0,
                read: true,
            },
            Event::Union,
            Event::Locality { delta: 2.0 },
            Event::Evict {
                page: 0,
                dirty: true,
            },
            Event::PageWrite {
                page: 0,
                kind: Kind::SuccessorList,
            },
            Event::TupleEmit { source: 1, node: 2 },
            Event::TupleWrites { n: 7 },
            Event::PhaseEnd {
                phase: Phase::Compute,
            },
            Event::RunEnd,
        ];
        let m = replay(trace).unwrap();
        assert_eq!(
            m.restructure_io,
            PhaseIo {
                reads: 1,
                writes: 0
            }
        );
        assert_eq!(
            m.compute_io,
            PhaseIo {
                reads: 0,
                writes: 1
            }
        );
        assert_eq!(m.disk.reads_by_kind[Kind::Relation.idx()], 1);
        assert_eq!(m.disk.writes_by_kind[Kind::SuccessorList.idx()], 1);
        assert_eq!(m.disk.total(), 2);
        assert_eq!(m.tuples_generated, 1);
        assert_eq!(m.source_tuples, 1);
        assert_eq!(m.unions, 1);
        assert_eq!(m.unmarked_locality_sum, 2.0);
        assert_eq!(m.unmarked_locality_count, 1);
        assert_eq!(m.buffer.requests, 2);
        assert_eq!(m.buffer.hits, 1);
        assert_eq!(m.buffer.evictions, 1);
        assert_eq!(m.buffer.dirty_writebacks, 1);
        // Compute-phase buffer stats exclude the restructuring miss.
        assert_eq!(m.buffer_compute.requests, 1);
        assert_eq!(m.buffer_compute.hits, 1);
        assert_eq!(m.tuple_writes, 7);
        assert_eq!(m.answer_tuples, 1);
        assert_eq!(m.total_io(), 2);
        assert_eq!(m.estimated_io_seconds, 2.0 * 20.0 / 1000.0);
        assert!(m.diff(&m).is_empty());
    }

    #[test]
    fn srch_reports_whole_run_buffer_stats_as_compute() {
        let trace = [
            Event::RunBegin {
                algorithm: crate::Algorithm::Srch,
                ms_per_io: 20.0,
            },
            Event::BufMiss {
                page: 0,
                read: true,
            },
            Event::PhaseEnd {
                phase: Phase::Restructure,
            },
            Event::BufHit {
                page: 0,
                read: true,
            },
            Event::RunEnd,
        ];
        let m = replay(trace).unwrap();
        assert_eq!(m.buffer_compute, m.buffer);
        assert_eq!(m.buffer_compute.requests, 2);
    }

    #[test]
    fn diff_names_the_differing_fields() {
        let base = replay([Event::RunBegin {
            algorithm: crate::Algorithm::Btc,
            ms_per_io: 20.0,
        }])
        .unwrap();
        let mut other = base.clone();
        other.unions = 5;
        other.answer_tuples = 1;
        let d = base.diff(&other);
        assert_eq!(d.len(), 2);
        assert!(d[0].starts_with("unions:"));
        assert!(d[1].starts_with("answer_tuples:"));
    }
}
