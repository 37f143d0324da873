//! Differential harness for the serving layer: served replies must be
//! bit-identical to direct engine answers.
//!
//! The service answers from a frozen snapshot (REACHINDEX labels for
//! `reach`, the materialized closure for `ptc`, a guided index walk
//! for `path`) — none of that code is shared with the nine algorithms'
//! query paths, so agreement is strong evidence for both sides. Three
//! contracts on the canonical G5 workload (n = 2000, F = 5, l = 200,
//! seed 7):
//!
//! 1. **Answer equivalence** — served `ptc` rows equal the partial-
//!    closure answer of every one of the nine algorithms, and served
//!    `reach`/`path` replies agree with closure membership, for the
//!    canonical sources.
//! 2. **Backend invariance** — per-reply FNV-1a digest sequences are
//!    identical whether the snapshot was frozen off the simulated or
//!    the file-backed store.
//! 3. **Worker invariance** — the full served-reply digest sequence of
//!    the canonical stream is identical at 1 and 3 workers.

use std::sync::{Arc, OnceLock};
use tc_bench::corpus::canonical::{self, SOURCES};
use tc_study::core::prelude::*;
use tc_study::graph::{closure, NodeId};
use tc_study::serve::{QueryStream, Reply, Request, ServeConfig, Service, Session, SessionConfig};
use tc_study::storage::Backend;

/// One shared sim-backed snapshot for the whole suite (freezing G5 is
/// the expensive step; every test reads it immutably).
fn sim_snapshot() -> Arc<ClosedSnapshot> {
    static SNAP: OnceLock<Arc<ClosedSnapshot>> = OnceLock::new();
    Arc::clone(SNAP.get_or_init(|| {
        let g = canonical::graph();
        Arc::new(ClosedSnapshot::build(&g, &SystemConfig::with_buffer(20)).expect("freeze G5"))
    }))
}

fn file_snapshot() -> Arc<ClosedSnapshot> {
    let g = canonical::graph();
    let cfg = SystemConfig::with_buffer(20).backend(Backend::File { dir: None });
    Arc::new(ClosedSnapshot::build(&g, &cfg).expect("freeze G5 on the file store"))
}

/// The per-source rows of a partial-closure answer (sources ascending,
/// rows ascending — the engine's canonical answer order).
fn rows_of(answer: &[(NodeId, NodeId)]) -> Vec<(NodeId, Vec<NodeId>)> {
    let mut out: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    for &(s, v) in answer {
        match out.last_mut() {
            Some((cur, row)) if *cur == s => row.push(v),
            _ => out.push((s, vec![v])),
        }
    }
    out
}

#[test]
fn served_ptc_rows_match_all_nine_algorithms_on_g5() {
    let g = canonical::graph();
    let snap = sim_snapshot();
    let mut session = Session::new(snap, &SessionConfig::default(), 0);
    let mut served: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
    for &u in &SOURCES {
        match session.handle(&Request::Ptc { u }).expect("serve ptc") {
            Reply::Ptc(row) => served.push((u, row)),
            other => panic!("ptc({u}) answered with {other:?}"),
        }
    }
    // Sources with empty rows are absent from engine answers.
    let served_nonempty: Vec<_> = served.iter().filter(|(_, r)| !r.is_empty()).collect();

    let mut db = Database::build(&g, true).expect("build database");
    let cfg = SystemConfig::with_buffer(20).collecting();
    let query = canonical::query();
    for algo in Algorithm::WITH_INDEX {
        let res = db.run(&query, algo, &cfg).expect("run");
        let rows = rows_of(res.answer.as_deref().expect("collected answer"));
        assert_eq!(
            served_nonempty.len(),
            rows.len(),
            "served sources vs {algo} on canonical G5"
        );
        for ((su, srow), (au, arow)) in served_nonempty.iter().zip(&rows) {
            assert_eq!((su, srow), (au, arow), "served ptc vs {algo}");
        }
    }
}

#[test]
fn served_reach_and_path_agree_with_closure_membership() {
    let g = canonical::graph();
    let snap = sim_snapshot();
    let mut session = Session::new(snap, &SessionConfig::default().cache_sources(0), 1);
    for &u in &SOURCES {
        let row = closure::successors_of(&g, u);
        for v in (0..g.n() as NodeId).step_by(97) {
            let expect = row.binary_search(&v).is_ok();
            match session.handle(&Request::Reach { u, v }).expect("reach") {
                Reply::Reach(b) => assert_eq!(b, expect, "reach({u},{v})"),
                other => panic!("reach answered {other:?}"),
            }
            match session.handle(&Request::Path { u, v }).expect("path") {
                Reply::Path(None) => assert!(!expect, "path({u},{v}) missing"),
                Reply::Path(Some(hops)) => {
                    assert!(expect, "path({u},{v}) invented a connection");
                    assert_eq!((hops[0], *hops.last().expect("nonempty")), (u, v));
                    for w in hops.windows(2) {
                        assert!(g.has_arc(w[0], w[1]), "fabricated arc {}→{}", w[0], w[1]);
                    }
                }
                other => panic!("path answered {other:?}"),
            }
        }
    }
}

/// Per-reply digest sequence of a full canonical-stream serve.
fn reply_digests(snap: Arc<ClosedSnapshot>, workers: usize) -> (Vec<u64>, u64, u64) {
    let service = Service::new(snap);
    let stream = QueryStream::canonical_g5();
    let report = service
        .serve(&stream, &ServeConfig::default().workers(workers))
        .expect("serve canonical stream");
    let digests = report
        .clients
        .iter()
        .flat_map(|c| c.records.iter().map(|r| r.digest))
        .collect();
    (digests, report.pages_read(), report.cache_hits())
}

#[test]
fn reply_digests_are_identical_across_backends_and_workers() {
    let sim1 = reply_digests(sim_snapshot(), 1);
    let sim3 = reply_digests(sim_snapshot(), 3);
    let file1 = reply_digests(file_snapshot(), 1);
    assert_eq!(sim1, sim3, "worker count leaked into the served replies");
    assert_eq!(sim1, file1, "backend leaked into the served replies");
}
