//! Backend differential test: the simulated disk and the file-backed
//! store must be observationally identical.
//!
//! Both backends are the same accounting core over a different byte
//! medium, so they share the allocator (LIFO free-list reuse), the
//! counting contract (one transfer per successful page read/write;
//! catalog operations uncounted) and the event emission order. The
//! canonical G5 proof of that lives in `golden_trace.rs`, which runs all
//! nine algorithms on both backends against the *pinned* digests and
//! checks `replay(trace) == metrics` on each; this file holds the
//! randomised half — arbitrary small workloads must produce identical
//! digests and metrics on both — and the temp-directory cleanup check.
//!
//! The file backend runs in a fresh temp directory whose cleanup rides
//! on `TempDir::drop`, so the directory is removed whether the test
//! passes or panics (unwinding drops the store either way).

use std::sync::Arc;
use tc_study::core::prelude::*;
use tc_study::graph::DagGenerator;
use tc_study::storage::Backend;
use tc_study::trace::{DigestSink, Tracer};

/// Shrinkable random-workload differential: arbitrary small DAGs ×
/// algorithms × replacement policies × buffer sizes must agree between
/// the backends, on the `tc-det` shrinking harness. A divergence shrinks
/// to a minimal (graph, query, config) before panicking.
#[test]
fn random_workloads_agree_across_backends() {
    use tc_study::det::check::{self, Checker};
    use tc_study::det::require_eq;

    #[derive(Clone, Debug)]
    struct Case {
        n: usize,
        seed: u64,
        algo_idx: usize,
        policy_idx: usize,
        buffer: usize,
        sources: Vec<u32>,
    }

    let run_on = |case: &Case, backend: Backend| -> Result<(u64, u64, u64, u64, u64), String> {
        let g = DagGenerator::new(case.n, 3.0, (case.n / 6).max(2))
            .seed(case.seed)
            .generate();
        let algo = Algorithm::ALL[case.algo_idx];
        let policy = tc_study::buffer::PagePolicy::ALL[case.policy_idx];
        let sink = Arc::new(DigestSink::new());
        let cfg = SystemConfig::with_buffer(case.buffer)
            .page_policy(policy)
            .backend(backend)
            .collecting()
            .traced(Tracer::new(sink.clone()));
        let mut db =
            Database::build_for(&g, true, &cfg).map_err(|e| format!("build failed: {e}"))?;
        let sources: Vec<u32> = case.sources.iter().map(|&s| s % case.n as u32).collect();
        let res = db
            .run(&Query::partial(sources), algo, &cfg)
            .map_err(|e| format!("run failed: {e}"))?;
        let d = sink.digest();
        Ok((
            d.hash,
            d.count,
            res.metrics.total_io(),
            res.metrics.tuples_generated,
            res.metrics.answer_tuples,
        ))
    };

    Checker::new("random_workloads_agree_across_backends")
        .cases(16)
        .run(
            |rng| Case {
                n: rng.random_range(20..260usize),
                seed: rng.next_u64(),
                algo_idx: rng.random_range(0..Algorithm::ALL.len()),
                policy_idx: rng.random_range(0..tc_study::buffer::PagePolicy::ALL.len()),
                buffer: rng.random_range(4..24usize),
                sources: check::vec_of(rng, 1..6, |r| r.next_u32()),
            },
            |case| {
                let mut out: Vec<Case> = check::shrink_vec(&case.sources)
                    .into_iter()
                    .filter(|s| !s.is_empty())
                    .map(|sources| Case {
                        sources,
                        ..case.clone()
                    })
                    .collect();
                if case.n > 20 {
                    out.push(Case {
                        n: (case.n / 2).max(20),
                        ..case.clone()
                    });
                }
                if case.algo_idx != 0 {
                    out.push(Case {
                        algo_idx: 0,
                        ..case.clone()
                    });
                }
                if case.policy_idx != 0 {
                    out.push(Case {
                        policy_idx: 0,
                        ..case.clone()
                    });
                }
                out
            },
            |case| {
                let sim = run_on(case, Backend::Sim)?;
                let file = run_on(case, Backend::file_temp())?;
                require_eq!(
                    sim,
                    file,
                    "(digest, events, io, tuples, answer) diverged for {} / {}",
                    Algorithm::ALL[case.algo_idx],
                    tc_study::buffer::PagePolicy::ALL[case.policy_idx].name()
                );
                Ok(())
            },
        );
}

#[test]
fn file_backend_temp_dir_is_cleaned_up() {
    // The auto-cleaning temp directory is what makes the differential
    // test (and every file-backend experiment cell) leave nothing
    // behind, pass or fail. Capture the directory, drop the database,
    // and check the directory is gone.
    use tc_study::storage::{FileStore, TempDir};
    let g = DagGenerator::new(120, 3.0, 30).seed(5).generate();
    let cfg = SystemConfig::with_buffer(10);
    let tmp = TempDir::new("tc-diff").expect("temp dir");
    let dir = tmp.path().to_path_buf();
    let store = FileStore::create_in(tmp).expect("create store");
    let mut db = Database::build_on(&g, false, Box::new(store)).expect("build");
    assert!(dir.exists(), "store directory missing while database lives");
    db.run(&Query::partial(vec![1]), Algorithm::Btc, &cfg)
        .expect("run");
    drop(db);
    assert!(
        !dir.exists(),
        "temp store directory survived database drop: {}",
        dir.display()
    );
}
