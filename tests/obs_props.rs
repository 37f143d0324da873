//! Shrink properties of the latency histogram: the algebra that makes
//! per-worker wall-clock recording safe.
//!
//! `tcq serve` merges one histogram per worker thread into the
//! process-wide figures, so the reported percentiles must not
//! depend on how replies happened to shard across workers, nor on the
//! order the per-worker histograms are folded. That holds iff merge is
//! element-wise addition on a fixed bucket layout — associative,
//! commutative, and shard-invariant — which these properties pin over
//! `tc-det`-generated random sample vectors (values spanning the full
//! log-linear range) with shrinking to a minimal counterexample.
//! Replay a failure with the printed `TC_DET_SEED=...`.

use tc_study::det::check::{shrink_vec, vec_of, Checker};
use tc_study::det::{require_eq, Rng};
use tc_study::obs::LatencyHistogram;

/// A latency sample stretched across the histogram's range: mostly
/// small values, with occasional jumps into high powers of two so the
/// log-linear buckets (not just the linear prefix) are exercised.
fn sample(rng: &mut Rng) -> u64 {
    let shift = rng.random_range(0..48u32);
    rng.random_range(0..1024u64) << shift
}

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

#[test]
fn merge_is_commutative() {
    Checker::new("merge_is_commutative").cases(64).run(
        |rng| (vec_of(rng, 0..40, sample), vec_of(rng, 0..40, sample)),
        |(a, b)| {
            let mut out: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
            for sa in shrink_vec(a) {
                out.push((sa, b.clone()));
            }
            for sb in shrink_vec(b) {
                out.push((a.clone(), sb));
            }
            out
        },
        |(a, b)| {
            let mut ab = hist_of(a);
            ab.merge(&hist_of(b));
            let mut ba = hist_of(b);
            ba.merge(&hist_of(a));
            require_eq!(ab, ba, "merge is not commutative");
            require_eq!(ab.percentile(99.0), ba.percentile(99.0), "p99 moved");
            Ok(())
        },
    );
}

#[test]
fn merge_is_associative() {
    Checker::new("merge_is_associative").cases(64).run(
        |rng| {
            (0..3)
                .map(|_| vec_of(rng, 0..30, sample))
                .collect::<Vec<_>>()
        },
        |parts| {
            let mut out = Vec::new();
            for (i, p) in parts.iter().enumerate() {
                for sp in shrink_vec(p) {
                    let mut cand = parts.clone();
                    cand[i] = sp;
                    out.push(cand);
                }
            }
            out
        },
        |parts| {
            let (a, b, c) = (hist_of(&parts[0]), hist_of(&parts[1]), hist_of(&parts[2]));
            // (a ⊕ b) ⊕ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ⊕ (b ⊕ c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            require_eq!(left, right, "merge is not associative");
            Ok(())
        },
    );
}

#[test]
fn percentiles_are_invariant_under_worker_sharding() {
    // The serving property proper: shard one reply stream across
    // 1–8 "workers" round-robin by a random assignment, merge the
    // per-worker histograms in a random-looking order, and every
    // reported figure matches single-threaded recording bit for bit.
    Checker::new("percentiles_are_invariant_under_worker_sharding")
        .cases(64)
        .run(
            |rng| {
                let samples = vec_of(rng, 1..200, sample);
                let workers = rng.random_range(1..9usize);
                let assign: Vec<usize> = samples
                    .iter()
                    .map(|_| rng.random_range(0..workers))
                    .collect();
                (samples, workers, assign)
            },
            |(samples, workers, assign)| {
                shrink_vec(samples)
                    .into_iter()
                    .map(|s| {
                        let a = assign[..s.len().min(assign.len())].to_vec();
                        (s, *workers, a)
                    })
                    .collect()
            },
            |(samples, workers, assign)| {
                let whole = hist_of(samples);
                let mut shards = vec![LatencyHistogram::new(); *workers];
                for (i, &v) in samples.iter().enumerate() {
                    let w = assign.get(i).copied().unwrap_or(0) % workers;
                    shards[w].record(v);
                }
                // Fold in reverse order: merge order must not matter.
                let mut merged = LatencyHistogram::new();
                for shard in shards.iter().rev() {
                    merged.merge(shard);
                }
                require_eq!(merged, whole, "sharded merge != direct recording");
                for q in [50.0, 95.0, 99.0, 99.9] {
                    require_eq!(
                        merged.percentile(q),
                        whole.percentile(q),
                        "p{q} moved under sharding across {workers} workers"
                    );
                }
                require_eq!(merged.mean(), whole.mean(), "mean moved under sharding");
                require_eq!(
                    merged.max_observed(),
                    whole.max_observed(),
                    "max moved under sharding"
                );
                Ok(())
            },
        );
}
