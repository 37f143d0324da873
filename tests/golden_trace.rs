//! Golden trace-digest test: the observability layer's determinism guard.
//!
//! Companion to `golden_seed.rs` (which pins the canonical G5 workload)
//! and `golden_fault_trace.rs` (which pins its failure trace): this test
//! pins the FNV-1a digest of the *event trace* each of the nine
//! algorithms emits on the canonical G5 workload (n = 2000, F = 5,
//! l = 200, seed 7, 20-page buffer, the canonical sources). The digest
//! covers every event's discriminant and fields in canonical encoding,
//! so any change to instrumentation points, event ordering, or the
//! algorithms themselves shows up as a digest break.
//!
//! Both tests read one shared run per algorithm on the simulated disk
//! **and** the file-backed store: the file backend must hit the same
//! pinned digests and pass the same `replay(trace) == metrics` check. On other workloads the backends
//! agree by construction: one `Store<M>` allocates, counts and emits for
//! every medium, and `store_contract.rs` holds each medium to the same
//! contract.
//!
//! Re-pinning: PINS.md (one protocol for every pin file).

use std::sync::{Arc, OnceLock};
use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::storage::Backend;
use tc_study::trace::{
    digest_events, replay, Counts, DigestSink, TeeSink, TraceDigest, Tracer, VecSink,
};

/// Pinned (algorithm, digest hash, event count) per algorithm, in
/// `Algorithm::WITH_INDEX` order. The first eight entries are the
/// original 1994 suite and must never move; REACHINDEX is appended.
const GOLDEN: [(&str, u64, u64); 9] = [
    ("BTC", 0x3A5C88BAA9EF2B5D, 9042354),
    ("HYB", 0x8E22CD8777127090, 9851246),
    ("BJ", 0x40344C1B0C2E6162, 8195880),
    ("SRCH", 0x5A858A8E9679B7DB, 83555),
    ("SPN", 0x82AB2A39C6C99B86, 8222554),
    ("JKB", 0xFF5B7B2E48B88139, 126376),
    ("JKB2", 0x2D3F04FED5DF35AA, 139752),
    ("SEMINAIVE", 0x03CAE93C00223F48, 117821),
    ("REACHINDEX", 0x2420201602A7D029, 57861),
];

/// The two backends, each with the canonical 20-page configuration and
/// a freshly built canonical database on it (the file store lives in a
/// temp directory removed on drop).
fn canonical_dbs() -> [(SystemConfig, Database); 2] {
    let g = canonical::graph();
    [Backend::Sim, Backend::file_temp()].map(|backend| {
        let base = SystemConfig::with_buffer(20).backend(backend.clone());
        let db = Database::build_for(&g, true, &base).unwrap();
        assert_eq!(db.backend_name(), backend.name(), "wrong backend opened");
        (base, db)
    })
}

/// One traced run per (backend, algorithm), shared by both tests:
/// (backend, algorithm, streaming digest, digest of the capture, replay
/// of the capture, the engine's metrics). The stream goes to a digest
/// and a capture at once; one 10 M-event capture lives at a time.
type Cell = (String, Algorithm, TraceDigest, TraceDigest, Counts, Counts);

fn cells() -> &'static [Cell] {
    static CELLS: OnceLock<Vec<Cell>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let mut cells = Vec::new();
        for (base, mut db) in canonical_dbs() {
            for algo in Algorithm::WITH_INDEX {
                let digest = Arc::new(DigestSink::new());
                let capture = Arc::new(VecSink::unbounded());
                let tee = TeeSink::new(vec![digest.clone(), capture.clone()]);
                let cfg = base.clone().traced(Tracer::new(Arc::new(tee)));
                let res = db.run(&canonical::query(), algo, &cfg).unwrap();
                let events = capture.events();
                drop((cfg, capture));
                let captured = digest_events(events.iter());
                let (streamed, replayed) = (digest.digest(), replay(events).unwrap());
                let (backend, counts) = (db.backend_name().to_string(), res.metrics.counts);
                cells.push((backend, algo, streamed, captured, replayed, counts));
            }
        }
        cells
    })
}

#[test]
fn every_algorithm_trace_matches_its_golden_digest() {
    // The streaming digest equals the offline digest of the capture (no
    // event lost or reordered between them), and both equal GOLDEN.
    for per_backend in cells().chunks(GOLDEN.len()) {
        let backend = &per_backend[0].0;
        let mut table = Vec::new();
        for (_, algo, streamed, captured, _, _) in per_backend {
            assert_eq!(
                captured, streamed,
                "{algo} on {backend}: capture lost events"
            );
            table.push((algo.name(), streamed.hash, streamed.count));
        }
        let rendered = table
            .iter()
            .map(|(name, hash, count)| format!("    ({name:?}, {hash:#018X}, {count}),"))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(
            table, GOLDEN,
            "the canonical G5 event traces changed on the {backend} backend — \
             if intentional, replace the GOLDEN table with:\n{rendered}\nand \
             note the trace break in CHANGES.md",
        );
    }
}

#[test]
fn replay_reconstructs_metrics_for_every_algorithm_on_golden_g5() {
    // The acceptance bar for the observability layer: on the canonical
    // workload, folding the event stream re-derives the engine's full
    // cost-metric suite field-by-field, for all nine algorithms. The
    // two sides come from independent code paths (snapshot-delta
    // accounting vs. a pure fold), so a lost or double-counted unit of
    // work on either side fails here.
    for (backend, algo, _, _, replayed, metrics) in cells() {
        let diff = metrics.diff(replayed).join("\n");
        assert!(
            replayed == metrics,
            "{algo} on {backend}: replay != metrics:\n{diff}"
        );
    }
}
