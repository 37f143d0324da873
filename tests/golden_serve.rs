//! Golden serving digests: end-to-end pin of the query-service
//! pipeline on the canonical G5 mix.
//!
//! `golden_seed.rs` pins the workload generator and `golden_report.rs`
//! the experiment renderer; this test pins the serving layer — the
//! canonical `QueryStream` (any drift in the Zipf sampler, the mix
//! draw order, or `cell_seed` shows up here first), the frozen
//! snapshot's shape, and the full deterministic track of a canonical
//! serve: aggregate reply digest, physical pages read, hot-source
//! cache counters. The same serve is then repeated at 4 workers and
//! must reproduce every pinned number bit-for-bit — the serving
//! layer's core contract (jobs/worker invariance). The reach-heavy and
//! ptc-heavy mixes carry no pins of their own; their whole track must
//! be equal at 1 and 4 workers.
//!
//! Re-pinning: PINS.md (one protocol for every pin file).

use std::sync::Arc;
use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::serve::{
    LoopMode, MixSpec, QueryStream, ServeConfig, ServeReport, Service, CANONICAL_SERVE_SEED,
};

/// Canonical stream: 4 clients × 64 requests, balanced mix, theta 0.8,
/// closed loop, the canonical seed.
const GOLDEN_STREAM_DIGEST: u64 = 0xFD93_D1E5_E56C_F60C;
/// The canonical G5 snapshot's materialized closure size.
const GOLDEN_CLOSURE_TUPLES: u64 = 1_482_903;
/// Pages captured into the frozen snapshot (relation + index + closure
/// + reachability-index files).
const GOLDEN_SNAPSHOT_PAGES: usize = 1_838;
/// Aggregate served-reply digest of the canonical serve.
const GOLDEN_REPLY_DIGEST: u64 = 0xD947_85B3_1083_1163;
/// Physical pages read across all four sessions.
const GOLDEN_PAGES_READ: u64 = 999;
/// Hot-source cache hits / probes across all four sessions.
const GOLDEN_CACHE: (u64, u64) = (1, 180);

/// The canonical G5 corpus, frozen once and shape-checked.
fn canonical_service() -> Service {
    let g = canonical::graph();
    let snap = ClosedSnapshot::build(&g, &SystemConfig::with_buffer(20)).expect("freeze G5");
    assert_eq!(
        snap.closure_tuples(),
        GOLDEN_CLOSURE_TUPLES as usize,
        "closure drifted"
    );
    assert_eq!(
        snap.pages().page_count(),
        GOLDEN_SNAPSHOT_PAGES,
        "snapshot shape drifted"
    );
    Service::new(Arc::new(snap))
}

/// Serves the canonical stream shape (4 clients × 64 requests, theta
/// 0.8, closed loop, the canonical seed) drawn from `mix`; `MIXED` is
/// [`QueryStream::canonical_g5`].
fn canonical_serve(service: &Service, mix: MixSpec, workers: usize) -> ServeReport {
    let stream = QueryStream::generate(
        2000,
        4,
        64,
        mix,
        0.8,
        LoopMode::Closed,
        CANONICAL_SERVE_SEED,
    );
    service
        .serve(&stream, &ServeConfig::default().workers(workers))
        .expect("canonical serve")
}

#[test]
fn canonical_stream_matches_golden_digest() {
    let stream = QueryStream::canonical_g5();
    assert_eq!(stream.clients(), 4);
    assert_eq!(stream.len(), 256);
    assert_eq!(
        stream.digest(),
        GOLDEN_STREAM_DIGEST,
        "canonical QueryStream drifted: digest now {:#018x}",
        stream.digest()
    );
}

#[test]
fn canonical_serve_matches_golden_track_at_1_and_4_workers() {
    let service = canonical_service();
    for workers in [1usize, 4] {
        let report = canonical_serve(&service, MixSpec::MIXED, workers);
        assert_eq!(report.replies(), 256, "workers {workers}: dropped replies");
        assert_eq!(
            report.digest(),
            GOLDEN_REPLY_DIGEST,
            "workers {workers}: reply digest drifted to {:#018x}",
            report.digest()
        );
        assert_eq!(
            report.pages_read(),
            GOLDEN_PAGES_READ,
            "workers {workers}: pages read drifted"
        );
        assert_eq!(
            (report.cache_hits(), report.cache_lookups()),
            GOLDEN_CACHE,
            "workers {workers}: cache counters drifted"
        );
    }
    for mix in [MixSpec::REACH_HEAVY, MixSpec::PTC_HEAVY] {
        let track = |workers| {
            let r = canonical_serve(&service, mix, workers);
            let cache = (r.cache_hits(), r.cache_lookups());
            (r.replies(), r.digest(), r.pages_read(), cache)
        };
        assert_eq!(track(1), track(4), "{mix:?}: 1 vs 4 workers");
    }
}
