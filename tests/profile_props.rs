//! Property test: the profile fold's attribution invariants on random
//! workloads.
//!
//! `golden_profile.rs` proves profile ≡ metrics on the canonical G5
//! workload; this test proves the same invariants on `tc-det`-generated
//! random small workloads across all eight algorithms, every
//! page-replacement policy, and optional transient-fault plans (replay
//! a failure with the printed `TC_DET_SEED=...`):
//!
//! 1. phase and per-kind attribution sums equal the engine's disk
//!    counters exactly;
//! 2. per-kind buffer stats sum to the pool's own counters;
//! 3. the cold/capacity/self miss classes partition the misses;
//! 4. resident pages never exceed the pool's frame count.

use std::sync::Arc;
use tc_study::buffer::PagePolicy;
use tc_study::core::prelude::*;
use tc_study::det::check::{self, Checker};
use tc_study::det::{require, require_eq, Rng};
use tc_study::profile::ProfileSink;
use tc_study::trace::Tracer;

mod common;
use common::dag_of;

const BUFFER_PAGES: usize = 8;

/// Raw generated input: node count plus unconstrained arc pairs (kept
/// raw so shrinking can drop arcs directly), a source set, a policy
/// index, and an optional fault seed.
type RawCase = ((usize, Vec<(u32, u32)>), Vec<u32>, usize, Option<u64>);

fn generate(rng: &mut Rng) -> RawCase {
    let n = rng.random_range(2..40usize);
    let pairs = check::vec_of(rng, 0..120, |r| {
        (r.random_range(0..n as u32), r.random_range(0..n as u32))
    });
    let sources = check::vec_of(rng, 1..4, |r| r.random_range(0..n as u32));
    let policy = rng.random_range(0..PagePolicy::ALL.len());
    let fault = rng
        .random_range(0..3u32)
        .eq(&0)
        .then(|| rng.random_range(0..1_000_000));
    ((n, pairs), sources, policy, fault)
}

fn shrink(case: &RawCase) -> Vec<RawCase> {
    let ((n, pairs), sources, policy, fault) = case;
    let mut out: Vec<RawCase> = check::shrink_vec(pairs)
        .into_iter()
        .map(|p| ((*n, p), sources.clone(), *policy, *fault))
        .collect();
    if fault.is_some() {
        // A fault-free version of the same case is always simpler.
        out.push(((*n, pairs.clone()), sources.clone(), *policy, None));
    }
    out
}

#[test]
fn profile_invariants_hold_on_random_workloads() {
    Checker::new("profile_invariants")
        .cases(24)
        .run(generate, shrink, |case| {
            let (raw, sources, policy, fault) = case;
            let g = dag_of(raw);
            let mut db = Database::build(&g, true).unwrap();
            for algo in Algorithm::ALL {
                let sink = Arc::new(ProfileSink::new());
                let mut cfg =
                    SystemConfig::with_buffer(BUFFER_PAGES).traced(Tracer::new(sink.clone()));
                cfg.page_policy = PagePolicy::ALL[*policy];
                if let Some(seed) = fault {
                    cfg.fault = Some(
                        FaultConfig::new(*seed)
                            .transient_reads(0.05)
                            .transient_writes(0.05),
                    );
                }
                // A fault plan may exhaust the retry budget; an erroring
                // run produces no metrics, so there is nothing to check.
                let Ok(res) = db.run(&Query::partial(sources.clone()), algo, &cfg) else {
                    continue;
                };
                let m = &res.metrics;
                let p = sink.finish();

                // 1. Attribution ≡ disk counters, per phase and kind.
                let (r, c) = (p.restructure_io(), p.compute_io());
                require_eq!(r.reads, m.restructure_io.reads, "{algo}: restr reads");
                require_eq!(r.writes, m.restructure_io.writes, "{algo}: restr writes");
                require_eq!(c.reads, m.compute_io.reads, "{algo}: compute reads");
                require_eq!(c.writes, m.compute_io.writes, "{algo}: compute writes");
                for (k, (&reads, &writes)) in m
                    .disk
                    .reads_by_kind
                    .iter()
                    .zip(&m.disk.writes_by_kind)
                    .enumerate()
                {
                    let io = p.io_by_kind(k);
                    require_eq!(io.reads, reads, "{algo}: kind {k} reads");
                    require_eq!(io.writes, writes, "{algo}: kind {k} writes");
                }

                // 2. Per-kind buffer sums ≡ pool counters.
                let b = p.buffer_totals();
                require_eq!(b.requests, m.buffer.requests, "{algo}: requests");
                require_eq!(b.hits, m.buffer.hits, "{algo}: hits");
                require_eq!(b.misses, m.buffer.misses, "{algo}: misses");
                require_eq!(b.read_requests, m.buffer.read_requests, "{algo}");
                require_eq!(b.read_hits, m.buffer.read_hits, "{algo}: read hits");
                require_eq!(b.evictions, m.buffer.evictions, "{algo}: evictions");
                require_eq!(b.dirty_writebacks, m.buffer.dirty_writebacks, "{algo}");
                require_eq!(b.flush_writes, m.buffer.flush_writes, "{algo}: flushes");
                require_eq!(p.counts.disk.retries, m.disk.retries, "{algo}: retries");

                // 3. Miss classes partition the misses (totals and every
                // per-kind row).
                require_eq!(p.miss_totals().total(), b.misses, "{algo}: partition");
                for k in 0..tc_study::profile::KIND_SLOTS {
                    require_eq!(
                        p.misses[k].total(),
                        p.buffer[k].misses,
                        "{algo}: kind {k} miss partition"
                    );
                }

                // 4. Residency respects the pool bound.
                require!(
                    p.max_resident <= BUFFER_PAGES as u64,
                    "{algo}: {} resident pages in a {BUFFER_PAGES}-frame pool",
                    p.max_resident
                );
            }
            Ok(())
        });
}
