//! One lifecycle contract, both entry points.
//!
//! A `Database::run` and a `DynamicClosure::apply` are the same metered
//! run: `RunBegin`, `PhaseBegin(Restructure)`, one phase boundary,
//! `PhaseEnd(Compute)`, `RunEnd` — and the same counter deltas read at
//! the same three points. This suite checks that shape from outside on
//! all nine algorithms, both backends and three update batches, and on
//! the paths where the body fails: a permanent read fault mid-run, a
//! permanent fault on the closure file mid-apply, and a batch refused
//! for closing a cycle. It uses no API newer than the engine itself, so
//! it passes unchanged on either side of a change to how the envelope is
//! written.

use std::sync::Arc;
use tc_study::core::prelude::*;
use tc_study::graph::{DagGenerator, Graph, UpdateOp};
use tc_study::storage::{FileKind, PageId, StorageError};
use tc_study::trace::{replay, Event, Phase, Tracer, VecSink};

fn dag() -> Graph {
    DagGenerator::new(240, 3.0, 48).seed(19).generate()
}

/// Positions of the phase boundary, `PhaseEnd(Restructure)`.
fn boundaries(events: &[Event]) -> Vec<usize> {
    let end = Event::PhaseEnd {
        phase: Phase::Restructure,
    };
    (0..events.len()).filter(|&i| events[i] == end).collect()
}

/// What every metered run emits, however its body ended: the opening
/// pair first, the closing pair last, nothing after, and never a second
/// boundary. A body that fails while restructuring never reaches the
/// boundary, so a failed run may have none.
fn closed(events: &[Event]) {
    let n = events.len();
    assert!(n >= 4, "a run emits at least its opening and closing pairs");
    assert!(
        matches!(events[0], Event::RunBegin { .. }),
        "RunBegin first"
    );
    assert_eq!(
        events[1],
        Event::PhaseBegin {
            phase: Phase::Restructure
        },
        "PhaseBegin(Restructure) second"
    );
    assert_eq!(
        events[n - 2],
        Event::PhaseEnd {
            phase: Phase::Compute
        },
        "PhaseEnd(Compute) second to last"
    );
    assert_eq!(events[n - 1], Event::RunEnd, "RunEnd last, nothing after");
    let at = boundaries(events);
    assert!(at.len() <= 1, "at most one PhaseEnd(Restructure)");
    let structural = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::RunBegin { .. }
                    | Event::RunEnd
                    | Event::PhaseBegin { .. }
                    | Event::PhaseEnd { .. }
            )
        })
        .count();
    assert_eq!(structural, 4 + 2 * at.len(), "no envelope event twice");
}

/// The envelope of a run whose body reached the computation phase:
/// [`closed`], with exactly one boundary and `PhaseBegin(Compute)`
/// immediately after it.
fn envelope(events: &[Event]) {
    closed(events);
    let at = boundaries(events);
    assert_eq!(at.len(), 1, "exactly one PhaseEnd(Restructure)");
    assert_eq!(
        events[at[0] + 1],
        Event::PhaseBegin {
            phase: Phase::Compute
        },
        "PhaseBegin(Compute) follows the boundary immediately"
    );
}

/// What a finished run's metrics owe its event stream.
fn accounted(metrics: &CostMetrics, events: &[Event], what: &str) {
    let by_kind: u64 = metrics
        .disk
        .reads_by_kind
        .iter()
        .chain(&metrics.disk.writes_by_kind)
        .sum();
    assert_eq!(by_kind, metrics.total_io(), "{what}: per-kind I/O sums");
    assert_eq!(
        metrics.restructure_io.total() + metrics.compute_io.total(),
        metrics.total_io(),
        "{what}: phases partition the total"
    );
    let replayed = replay(events.iter().copied()).expect("replay");
    let expected = &metrics.counts;
    assert!(
        &replayed == expected,
        "{what}: replay(trace) != metrics:\n{}",
        expected.diff(&replayed).join("\n")
    );
}

fn traced(backend: Backend) -> (SystemConfig, Arc<VecSink>) {
    let sink = Arc::new(VecSink::unbounded());
    let cfg = SystemConfig::with_buffer(8)
        .backend(backend)
        .traced(Tracer::new(sink.clone()));
    (cfg, sink)
}

#[test]
fn every_algorithm_run_is_one_envelope_on_both_backends() {
    let g = dag();
    for backend in [Backend::Sim, Backend::file_temp()] {
        for algo in Algorithm::WITH_INDEX {
            for query in [Query::full(), Query::partial(vec![2, 31, 77])] {
                let (cfg, sink) = traced(backend.clone());
                let mut db = Database::build_for(&g, true, &cfg).expect("build");
                let res = db.run(&query, algo, &cfg).expect("run");
                let events = sink.events();
                let what = format!("{algo} on {}", backend.name());
                envelope(&events);
                accounted(&res.metrics, &events, &what);
                assert!(res.metrics.total_io() > 0, "{what}");
                assert_ne!(db.backend_name(), "detached", "{what}");
            }
        }
    }
}

/// Three batches over `dag()`: inserts, deletes of existing arcs, mixed.
/// Generated arcs run from lower to higher node ids, so ascending
/// inserts keep the graph acyclic.
fn batches(g: &Graph) -> Vec<Vec<UpdateOp>> {
    let arcs: Vec<(u32, u32)> = g.arcs().collect();
    vec![
        vec![UpdateOp::Insert(0, 200), UpdateOp::Insert(5, 130)],
        vec![
            UpdateOp::Delete(arcs[3].0, arcs[3].1),
            UpdateOp::Delete(arcs[40].0, arcs[40].1),
        ],
        vec![
            UpdateOp::Insert(1, 239),
            UpdateOp::Delete(arcs[90].0, arcs[90].1),
            UpdateOp::Insert(arcs[3].0, arcs[3].1),
        ],
    ]
}

#[test]
fn every_apply_is_one_envelope_on_both_backends() {
    let g = dag();
    for backend in [Backend::Sim, Backend::file_temp()] {
        let (cfg, sink) = traced(backend.clone());
        let mut dyn_tc = DynamicClosure::build(&g, &cfg).expect("build");
        let mut seen = 0;
        for (i, batch) in batches(&g).iter().enumerate() {
            let res = dyn_tc.apply(batch).expect("apply");
            let all = sink.events();
            let events = &all[seen..];
            seen = all.len();
            let what = format!("batch {i} on {}", backend.name());
            envelope(events);
            accounted(&res.metrics, events, &what);
            assert_eq!(
                events
                    .iter()
                    .filter(|e| matches!(e, Event::DeltaApplied { .. }))
                    .count(),
                1,
                "{what}: one DeltaApplied"
            );
            assert_ne!(dyn_tc.backend_name(), "detached", "{what}");
        }
    }
}

#[test]
fn a_run_killed_by_a_fault_still_closes_the_envelope_and_disarms() {
    let g = dag();
    let mut db = Database::build(&g, true).expect("build");
    let sink = Arc::new(VecSink::unbounded());
    // Page 0 is the first relation page; every restructuring scan reads it.
    let cfg = SystemConfig::with_buffer(8)
        .traced(Tracer::new(sink.clone()))
        .faulted(FaultConfig::new(3).on_page(PageId(0), FaultKind::PermanentRead));
    let err = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap_err();
    assert!(matches!(err, StorageError::PermanentFault(_)), "{err:?}");
    // Killed while restructuring: the body never reached the boundary.
    let events = sink.events();
    closed(&events);
    assert!(boundaries(&events).is_empty());
    assert_ne!(db.backend_name(), "detached");

    // Disarmed: no fault, no tracer left on the store.
    let before = sink.len();
    let next = Arc::new(VecSink::unbounded());
    let res = db
        .run(
            &Query::full(),
            Algorithm::Btc,
            &SystemConfig::with_buffer(8)
                .validated()
                .traced(Tracer::new(next.clone())),
        )
        .expect("the next fault-free run succeeds");
    assert_eq!(res.metrics.disk.faults_injected, 0);
    assert!(!next
        .events()
        .iter()
        .any(|e| matches!(e, Event::FaultInjected { .. })));
    assert_eq!(
        sink.len(),
        before,
        "the old sink saw nothing of the new run"
    );
}

#[test]
fn an_apply_killed_on_a_closure_read_still_closes_the_envelope() {
    let g = dag();
    let batch = &batches(&g)[0];

    // A fault-free twin names a closure-file page the compute phase reads.
    let (cfg, sink) = traced(Backend::Sim);
    let mut twin = DynamicClosure::build(&g, &cfg).expect("build");
    twin.apply(batch).expect("apply");
    let events = sink.events();
    let compute = events
        .iter()
        .position(|e| {
            *e == Event::PhaseBegin {
                phase: Phase::Compute,
            }
        })
        .expect("compute phase");
    let page = events[compute..]
        .iter()
        .find_map(|e| match *e {
            Event::PageRead {
                page,
                kind: FileKind::Output,
            } => Some(page),
            _ => None,
        })
        .expect("maintenance reads the closure file");

    let (cfg, sink) = traced(Backend::Sim);
    let cfg = cfg.faulted(FaultConfig::new(5).on_page(PageId(page), FaultKind::PermanentRead));
    let mut dyn_tc = DynamicClosure::build(&g, &cfg).expect("build");
    let err = dyn_tc.apply(batch).unwrap_err();
    assert!(
        matches!(err, UpdateError::Storage(StorageError::PermanentFault(_))),
        "{err:?}"
    );
    let events = sink.events();
    envelope(&events);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, Event::DeltaApplied { .. })),
        "a failed apply reports no delta"
    );
    assert_ne!(dyn_tc.backend_name(), "detached");
}

#[test]
fn a_cycle_closing_batch_closes_the_envelope_with_no_delta() {
    let g = dag();
    let (u, v) = g.arcs().next().expect("an arc");
    let (cfg, sink) = traced(Backend::Sim);
    let mut dyn_tc = DynamicClosure::build(&g, &cfg).expect("build");
    let err = dyn_tc.apply(&[UpdateOp::Insert(v, u)]).unwrap_err();
    assert!(matches!(err, UpdateError::ClosesCycle { .. }), "{err:?}");
    let refused = sink.events();
    envelope(&refused);
    assert!(!refused
        .iter()
        .any(|e| matches!(e, Event::DeltaApplied { .. })));

    // Nothing was changed: the next batch is an ordinary run.
    let res = dyn_tc.apply(&batches(&g)[0]).expect("apply");
    let all = sink.events();
    envelope(&all[refused.len()..]);
    accounted(&res.metrics, &all[refused.len()..], "after the refusal");
}
