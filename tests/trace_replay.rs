//! Property test: `metrics ≡ replay(trace)` on random workloads.
//!
//! The observability layer's contract is that the engine's cost metrics
//! and the event trace are two views of the same execution: folding the
//! trace back through [`tc_study::trace::replay`] must reconstruct every
//! metric field exactly. `golden_trace.rs` checks this on the canonical
//! G5 workload; this test checks it on `tc-det`-generated random small
//! workloads across all eight algorithms, every page-replacement policy,
//! and optional transient-fault plans (replay a failure with the printed
//! `TC_DET_SEED=...`).

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter};
use std::sync::Arc;
use tc_bench::corpus::canonical;
use tc_study::buffer::PagePolicy;
use tc_study::core::prelude::*;
use tc_study::det::check::{self, Checker};
use tc_study::det::{require, Rng};
use tc_study::profile::profile_jsonl;
use tc_study::storage::TempDir;
use tc_study::trace::{replay, Event, JsonlSink, Tracer, VecSink};

mod common;
use common::dag_of;

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
fn replay_reconstructs_metrics_on_random_workloads() {
    Checker::new("replay_reconstructs_metrics")
        .cases(24)
        .run(generate, shrink, |case| {
            let (raw, sources, policy, fault) = case;
            let g = dag_of(raw);
            let mut db = Database::build(&g, true).unwrap();
            for algo in Algorithm::ALL {
                let sink = Arc::new(VecSink::unbounded());
                let mut cfg = SystemConfig::with_buffer(8).traced(Tracer::new(sink.clone()));
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
                let replayed = match replay(sink.events()) {
                    Ok(r) => r,
                    Err(e) => return Err(format!("{algo}: replay failed: {e:?}")),
                };
                let expected = res.metrics.counts;
                require!(
                    replayed == expected,
                    "{}: replay(trace) != metrics; field diff:\n{}",
                    algo,
                    expected.diff(&replayed).join("\n")
                );
            }
            Ok(())
        });
}

/// The trace a user keeps is the file `--trace` wrote, not the events in
/// memory: the JSONL encoder, the line parser and both consumers of the
/// parsed stream (replay, and the profile `tcq analyze` renders) must
/// hand back the run's own counts through a real file, for every
/// algorithm on the canonical G5 workload.
#[test]
fn the_trace_on_disk_replays_to_the_runs_counts() {
    let mut db = Database::build(&canonical::graph(), true).unwrap();
    let dir = TempDir::new("trace-replay").unwrap();
    let path = dir.path().join("run.jsonl");
    for algo in Algorithm::WITH_INDEX {
        let sink = Arc::new(JsonlSink::new(BufWriter::new(File::create(&path).unwrap())));
        let cfg = SystemConfig::with_buffer(20).traced(Tracer::new(sink.clone()));
        let res = db.run(&canonical::query(), algo, &cfg).unwrap();
        sink.finish().unwrap();
        let expected = &res.metrics.counts;

        let lines = BufReader::new(File::open(&path).unwrap()).lines();
        let replayed = replay(lines.map(|l| Event::parse_jsonl(&l.unwrap()).unwrap())).unwrap();
        assert!(
            &replayed == expected,
            "{algo}: replay(file) != counts; field diff:\n{}",
            expected.diff(&replayed).join("\n")
        );
        let profile = profile_jsonl(BufReader::new(File::open(&path).unwrap())).unwrap();
        assert!(
            &profile.counts == expected,
            "{algo}: profile(file).counts != counts; field diff:\n{}",
            expected.diff(&profile.counts).join("\n")
        );
    }
}
