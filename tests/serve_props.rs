//! Property test: the serving layer's deterministic track is invariant
//! under worker count.
//!
//! For `tc-det`-generated random DAGs × seeded query streams ×
//! optional transient-fault plans, a serve
//! at 1 worker and a serve at a random 2–8 workers must produce the
//! same per-reply digest sequence, the same aggregate reply digest,
//! the same physical page reads, and the same cache counters — and the
//! `ptc` replies must match the in-memory closure oracle. Transient
//! faults are exercised because the retry path must clear them without
//! leaking a retry into any counted number (the streak cap is below
//! the default retry budget, so serves never error). Replay a failure
//! with the printed `TC_DET_SEED=...`.

use std::sync::Arc;
use tc_study::core::prelude::*;
use tc_study::det::check::{self, Checker};
use tc_study::det::{require_eq, Rng};
use tc_study::graph::closure;
use tc_study::serve::{
    LoopMode, MixSpec, QueryStream, Reply, Request, ServeConfig, ServeReport, Service,
    SessionConfig,
};

mod common;
use common::dag_of;

/// Raw generated input: `(n, base arc pairs)`, `(clients, per_client,
/// stream seed, mix index)`, the challenger worker count, and an
/// optional fault seed.
type RawCase = (
    (usize, Vec<(u32, u32)>),
    (usize, usize, u64, usize),
    usize,
    Option<u64>,
);

const MIXES: [MixSpec; 3] = [MixSpec::MIXED, MixSpec::REACH_HEAVY, MixSpec::PTC_HEAVY];

fn generate(rng: &mut Rng) -> RawCase {
    let n = rng.random_range(2..40usize);
    let pairs = check::vec_of(rng, 0..80, |r| {
        (r.random_range(0..n as u32), r.random_range(0..n as u32))
    });
    let stream = (
        rng.random_range(1..5usize),
        rng.random_range(1..24usize),
        rng.random_range(0..1_000_000u64),
        rng.random_range(0..MIXES.len()),
    );
    let workers = rng.random_range(2..9usize);
    let fault = rng
        .random_range(0..3u32)
        .eq(&0)
        .then(|| rng.random_range(0..1_000_000));
    ((n, pairs), stream, workers, fault)
}

fn shrink(case: &RawCase) -> Vec<RawCase> {
    let ((n, pairs), stream, workers, fault) = case;
    let mut out: Vec<RawCase> = check::shrink_vec(pairs)
        .into_iter()
        .map(|p| ((*n, p), *stream, *workers, *fault))
        .collect();
    let (clients, per_client, seed, mix) = *stream;
    if per_client > 1 {
        out.push((
            (*n, pairs.clone()),
            (clients, per_client / 2, seed, mix),
            *workers,
            *fault,
        ));
    }
    if clients > 1 {
        out.push((
            (*n, pairs.clone()),
            (clients / 2, per_client, seed, mix),
            *workers,
            *fault,
        ));
    }
    if fault.is_some() {
        out.push(((*n, pairs.clone()), *stream, *workers, None));
    }
    out
}

/// Everything on the deterministic track, extracted for comparison.
fn track(report: &ServeReport) -> (Vec<(usize, usize, u64, u64)>, u64, u64, u64, u64) {
    let per_reply = report
        .clients
        .iter()
        .flat_map(|c| {
            c.records
                .iter()
                .map(|r| (r.client, r.seq, r.epoch, r.digest))
        })
        .collect();
    (
        per_reply,
        report.digest(),
        report.pages_read(),
        report.cache_hits(),
        report.cache_lookups(),
    )
}

#[test]
fn deterministic_track_is_invariant_under_worker_count() {
    Checker::new("serve_worker_invariance")
        .cases(32)
        .run(generate, shrink, |case| {
            let (raw, &(clients, per_client, seed, mix), &workers, fault) =
                (&case.0, &case.1, &case.2, &case.3);
            let g = dag_of(raw);
            let snap = match ClosedSnapshot::build(&g, &SystemConfig::with_buffer(8)) {
                Ok(s) => Arc::new(s),
                Err(e) => return Err(format!("freeze failed: {e}")),
            };
            let stream = QueryStream::generate(
                g.n(),
                clients,
                per_client,
                MIXES[mix],
                0.8,
                LoopMode::Closed,
                seed,
            );
            let mut session = SessionConfig::default().buffer_pages(4).cache_sources(2);
            if let Some(seed) = fault {
                // Transient-only: always clears within the retry
                // budget, never reaches a counted number.
                session = session.faulted(FaultConfig::new(*seed).transient_reads(0.05));
            }
            let service = Service::new(Arc::clone(&snap));

            let serve = |workers: usize, collect: bool| {
                service.serve(
                    &stream,
                    &ServeConfig::default()
                        .workers(workers)
                        .session(session.clone())
                        .collect_replies(collect),
                )
            };
            let base = match serve(1, true) {
                Ok(r) => r,
                Err(e) => return Err(format!("serve at 1 worker failed: {e}")),
            };
            let wide = match serve(workers, false) {
                Ok(r) => r,
                Err(e) => return Err(format!("serve at {workers} workers failed: {e}")),
            };
            require_eq!(
                track(&base),
                track(&wide),
                "deterministic track diverged between 1 and {} workers",
                workers
            );
            require_eq!(base.replies(), stream.len(), "dropped replies");

            // The collected replies must be the oracle's answers.
            for (c, client) in base.clients.iter().enumerate() {
                for record in &client.records {
                    let req = stream.client(c)[record.seq];
                    let reply = record.reply.as_ref();
                    match (req, reply) {
                        (Request::Ptc { u }, Some(Reply::Ptc(row))) => {
                            require_eq!(
                                row,
                                &closure::successors_of(&g, u),
                                "ptc({}) diverged from the oracle",
                                u
                            );
                        }
                        (Request::Reach { u, v }, Some(Reply::Reach(b))) => {
                            let expect = closure::successors_of(&g, u).binary_search(&v).is_ok();
                            require_eq!(*b, expect, "reach({},{}) wrong", u, v);
                        }
                        (Request::Path { u, v }, Some(Reply::Path(hops))) => {
                            let expect = closure::successors_of(&g, u).binary_search(&v).is_ok();
                            require_eq!(hops.is_some(), expect, "path({},{}) wrong", u, v);
                        }
                        (req, reply) => {
                            return Err(format!("shape mismatch: {req:?} vs {reply:?}"))
                        }
                    }
                }
            }
            Ok(())
        });
}
