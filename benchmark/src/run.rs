//! One run of one workload: set up (several times, for a steady
//! `setup_s`), measure for the given number of seconds, check every
//! output, and report — end-to-end metrics from an untraced run,
//! per-layer metrics from a traced one.

use crate::calib::{Bracket, Kernel};
use crate::common::{median_ns, ms, peak_rss_mb, Ctx, Tally};
use crate::engine::{self, Engine};
use crate::json::Json;
use crate::model::{self, StoreKind};
use crate::probe;
use crate::serving::Serving;
use crate::spans::Spans;
use crate::spec::{self, Metrics};
use crate::stats::{highest_supported_pct, median_f, quantile};
use crate::updates::{self, Updates};
use std::time::Instant;

enum Work {
    Engine(Box<Engine>),
    Serving(Box<Serving>),
    Updates(Box<Updates>),
}

impl Work {
    fn setup(ctx: &Ctx, k: usize, sp: &mut Spans) -> Result<Work, String> {
        Ok(match ctx.workload.as_str() {
            "closure_batch" | "selective_file" => {
                Work::Engine(Box::new(Engine::setup(ctx, engine::spec(ctx), k, sp)?))
            }
            "serve_cold" | "serve_resident" => Work::Serving(Box::new(Serving::setup(ctx, k, sp)?)),
            "update_publish" => Work::Updates(Box::new(Updates::setup(ctx, k, sp)?)),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    /// Rounds per instance that always run, however short `--seconds`
    /// is: enough for a median, and for the exact counts where rounds
    /// differ.
    fn min_rounds(&self) -> usize {
        match self {
            Work::Updates(_) => updates::EXACT_ROUNDS,
            _ => 2,
        }
    }

    fn has_round(&self) -> bool {
        match self {
            Work::Updates(u) => u.has_round(),
            _ => true,
        }
    }

    fn round(&mut self, sp: &mut Spans, t: &mut Tally, first: bool) -> Result<(), String> {
        match self {
            Work::Engine(e) => e.measured_round(sp, t, first),
            Work::Serving(s) => s.measured_round(sp, t, first),
            Work::Updates(u) => u.measured_round(sp, t),
        }
    }

    fn digests(&self) -> (u64, u64) {
        match self {
            Work::Engine(e) => (e.graph_digest, 0),
            Work::Serving(s) => (s.graph_digest, s.stream_digest),
            Work::Updates(u) => (u.graph_digest, u.stream_digest),
        }
    }
}

/// What one measured round took: wall times as read, and the reference
/// kernel's times around the round.
struct RoundSample {
    round_ns: u64,
    /// Median and tail of the round's queries.
    query_p50_ns: u64,
    query_hi_ns: u64,
    speed: Bracket,
}

/// One input instance and what its rounds added up.
struct Instance {
    work: Work,
    tally: Tally,
    samples: Vec<RoundSample>,
    /// Round times of a traced run, by whether the round was traced.
    traced_ns: Vec<u64>,
    plain_ns: Vec<u64>,
}

fn set_up(ctx: &Ctx, sp: &mut Spans) -> Result<Vec<Instance>, String> {
    (0..ctx.shape().instances.max(1))
        .map(|k| {
            Ok(Instance {
                work: Work::setup(ctx, k, sp)?,
                tally: Tally::default(),
                samples: Vec::new(),
                traced_ns: Vec::new(),
                plain_ns: Vec::new(),
            })
        })
        .collect()
}

/// Mean over the instances of a per-instance statistic.
fn mean_over(instances: &[Instance], stat: impl Fn(&Instance) -> f64) -> f64 {
    instances.iter().map(stat).sum::<f64>() / instances.len() as f64
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Untraced runs: the machine's speed factor and every timing as the
    /// clock read it, before it was brought to nominal speed.
    pub raw: Vec<(&'static str, f64, &'static str)>,
    /// Seed, input digests and exact counts: what must repeat for a seed
    /// (the totals also depend on how many rounds the time allowed).
    pub info: Json,
}

impl Outcome {
    /// The contract's result line.
    pub fn result_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, value, unit)| {
            let entry = Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]);
            (name.clone(), entry)
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.work_dir).map_err(|e| e.to_string())?;
    let outcome = run_in(ctx);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    outcome
}

fn run_in(ctx: &Ctx) -> Result<Outcome, String> {
    // ---- set-up, repeated; the last one is measured on. Every timed
    // operation stands between two runs of the reference kernel
    // (calib.rs); the run after one is the run before the next.
    let mut kernel = Kernel::new();
    let mut before = kernel.run();
    let mut setup_spans = Spans::new(ctx.trace);
    let mut setup_s: Vec<(f64, Bracket)> = Vec::new();
    let mut instances = Vec::new();
    let reps = ctx.sizes.setup_reps.max(1);
    for rep in 0..5 * reps {
        if rep >= reps && setup_s.iter().map(|s| s.0).sum::<f64>() >= ctx.sizes.setup_min_s {
            break;
        }
        instances.clear();
        setup_spans.set_round(rep as u64);
        let t0 = Instant::now();
        instances = set_up(ctx, &mut setup_spans)?;
        let elapsed = t0.elapsed().as_secs_f64();
        let after = kernel.run();
        let speed = Bracket { before, after };
        setup_s.push((elapsed, speed));
        before = after;
    }

    // ---- measured section: rounds take the instances in turn. A traced
    // run alternates traced and plain passes over the instances, so the
    // two are compared on the same inputs under the same conditions.
    let mut sp = Spans::new(ctx.trace);
    let k = instances.len();
    let min_rounds = k * instances[0].work.min_rounds();
    let start = Instant::now();
    let mut i = 0usize;
    let mut rss_mb = None;
    while instances[i % k].work.has_round()
        && (i < min_rounds || start.elapsed().as_secs_f64() < ctx.seconds)
    {
        let pass = i / k;
        let traced = ctx.trace && pass & 1 == 0;
        sp.set_on(traced);
        sp.set_round(i as u64);
        let inst = &mut instances[i % k];
        inst.work.round(&mut sp, &mut inst.tally, i < k)?;
        let ns = *inst
            .tally
            .round_ns
            .last()
            .expect("a round records its time");
        if traced {
            &mut inst.traced_ns
        } else {
            &mut inst.plain_ns
        }
        .push(ns);
        let after = kernel.run();
        // The round's queries become two quantiles; keeping every sample
        // of every round would make memory grow with the machine's speed.
        let queries = &mut inst.tally.query_ns;
        let tail = highest_supported_pct(queries.len()).min(99.0);
        inst.samples.push(RoundSample {
            round_ns: ns,
            query_p50_ns: quantile(queries, 50.0),
            query_hi_ns: quantile(queries, tail),
            speed: Bracket { before, after },
        });
        inst.tally.queries += queries.len() as u64;
        queries.clear();
        before = after;
        i += 1;
        // Memory is read once every instance has run its minimum rounds:
        // what the run holds after that (round records, replies kept for
        // the final check) grows with the rounds the machine had time for.
        if i == min_rounds {
            rss_mb = Some(peak_rss_mb());
        }
    }
    // Less the reference kernel's tables, which are not the program's.
    let rss_mb = rss_mb.unwrap_or_else(peak_rss_mb) - Kernel::footprint_mb();
    for inst in &mut instances {
        if let Work::Updates(u) = &mut inst.work {
            u.verify(&mut inst.tally)?;
        }
    }

    let sum = |f: &dyn Fn(&Tally) -> u64| instances.iter().map(|inst| f(&inst.tally)).sum::<u64>();
    let hex = |x: u64| Json::str(format!("{x:016x}"));
    let digests: Vec<(u64, u64)> = instances.iter().map(|inst| inst.work.digests()).collect();
    let page_io = mean_over(&instances, |inst| inst.tally.page_io as f64);
    let space_amp = mean_over(&instances, |inst| inst.tally.space_amp);
    let info = Json::obj([
        ("workload", Json::str(ctx.workload.as_str())),
        ("seed", Json::Num(ctx.seed as f64)),
        (
            "graph_digests",
            Json::Arr(digests.iter().map(|d| hex(d.0)).collect()),
        ),
        (
            "stream_digests",
            Json::Arr(digests.iter().map(|d| hex(d.1)).collect()),
        ),
        (
            "rounds",
            Json::Num(sum(&|t| t.round_ns.len() as u64) as f64),
        ),
        ("queries", Json::Num(sum(&|t| t.queries) as f64)),
        ("page_io", Json::Num(page_io)),
        ("space_amp", Json::Num(space_amp)),
        ("bytes_stored", Json::Num(sum(&|t| t.bytes_stored) as f64)),
        ("buffer_hits", Json::Num(sum(&|t| t.counts.buf_hits) as f64)),
        (
            "buffer_misses",
            Json::Num(sum(&|t| t.counts.buf_misses) as f64),
        ),
        (
            "page_reads",
            Json::Num(sum(&|t| t.counts.reads + t.counts.frozen_reads) as f64),
        ),
        ("page_writes", Json::Num(sum(&|t| t.counts.writes) as f64)),
        (
            "tuples_generated",
            Json::Num(sum(&|t| t.counts.tuples_generated) as f64),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
    ]);
    let (attempted, failed) = (sum(&|t| t.attempted), sum(&|t| t.failed));

    let mut m = Metrics::default();
    let mut raw = Vec::new();
    let metrics = if ctx.trace {
        layer_metrics(ctx, &mut instances, &mut sp, &setup_spans, &mut m)?;
        let listed = spec::per_layer();
        let stray = m.unlisted(&listed);
        if !stray.is_empty() {
            return Err(format!("metrics set but not listed: {stray:?}"));
        }
        let doc = Json::obj([
            ("setup", setup_spans.to_json(&ctx.workload, ctx.seed)),
            ("run", sp.to_json(&ctx.workload, ctx.seed)),
        ]);
        std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;
        let path = ctx.out_dir.join(format!("trace-{}.json", ctx.workload));
        std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        listed
            .into_iter()
            .map(|(n, u)| {
                let v = m.get(&n);
                (n, v, u)
            })
            .collect()
    } else {
        raw = timings(&instances, &setup_s, true);
        raw.push((
            "speed_factor",
            median_factor(&instances, Bracket::factor),
            "ratio",
        ));
        raw.push((
            "steady_factor",
            median_factor(&instances, Bracket::steady_factor),
            "ratio",
        ));
        for (name, value, _) in timings(&instances, &setup_s, false) {
            m.set(name, value);
        }
        m.set("page_io", page_io);
        m.set("space_amp", space_amp);
        m.set("peak_rss_mb", rss_mb);
        spec::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), m.get(n), *u))
            .collect()
    };
    Ok(Outcome {
        attempted: attempted.max(1),
        failed,
        metrics,
        raw,
        info,
    })
}

/// The machine's speed over the measured section: the median of the
/// rounds' factors.
fn median_factor(instances: &[Instance], factor: fn(Bracket) -> f64) -> f64 {
    let factors: Vec<f64> = instances
        .iter()
        .flat_map(|inst| inst.samples.iter().map(|s| factor(s.speed)))
        .collect();
    median_f(&factors)
}

/// The timings of an untraced run, as the clock read them (`raw`) or at
/// the reference kernel's nominal speed (what is reported). A timing is
/// the mean over the instances of the per-instance median over rounds.
fn timings(
    instances: &[Instance],
    setup_s: &[(f64, Bracket)],
    raw: bool,
) -> Vec<(&'static str, f64, &'static str)> {
    // Rounds and set-ups take tenths of a second. So does a query of an
    // engine workload (a `Database::run`); a query of the others is a
    // request of microseconds, which the machine's slowness reaches
    // differently (calib.rs).
    let long = |ns: f64, speed: Bracket| if raw { ns } else { speed.at_nominal(ns) };
    let requests = !matches!(instances[0].work, Work::Engine(_));
    let query = |ns: f64, speed: Bracket| match (raw, requests) {
        (true, _) => ns,
        (false, true) => speed.short_at_nominal(ns),
        (false, false) => speed.at_nominal(ns),
    };
    let median_of = |inst: &Instance, of: &dyn Fn(&RoundSample) -> f64| {
        let per_round: Vec<f64> = inst.samples.iter().map(of).collect();
        median_f(&per_round)
    };
    let round_ns = |inst: &Instance| median_of(inst, &|s| long(s.round_ns as f64, s.speed));
    let setups: Vec<f64> = setup_s.iter().map(|&(s, speed)| long(s, speed)).collect();
    // Work of a round over the median round time, not total over total:
    // one stalled round must not move the throughput.
    let work_per_s = mean_over(instances, |inst| {
        let per_round = inst.tally.work as f64 / inst.samples.len().max(1) as f64;
        per_round / (round_ns(inst).max(1.0) / 1e9)
    });
    let query_us = |of: &dyn Fn(&RoundSample) -> u64| {
        mean_over(instances, |inst| {
            median_of(inst, &|s| query(of(s) as f64, s.speed))
        }) / 1e3
    };
    vec![
        ("setup_s", median_f(&setups), "s"),
        ("round_p50_ms", mean_over(instances, round_ns) / 1e6, "ms"),
        ("work_per_s", work_per_s, "1/s"),
        ("query_p50_us", query_us(&|s| s.query_p50_ns), "us"),
        ("query_p99_us", query_us(&|s| s.query_hi_ns), "us"),
    ]
}

fn layer_metrics(
    ctx: &Ctx,
    instances: &mut [Instance],
    sp: &mut Spans,
    setup: &Spans,
    m: &mut Metrics,
) -> Result<(), String> {
    // Everything the rounds added up, over all instances.
    let mut all = Tally::default();
    let mut plain_ns: Vec<u64> = Vec::new();
    for inst in instances.iter() {
        all.absorb(&inst.tally);
        plain_ns.extend(&inst.plain_ns);
    }
    let rounds = all.round_ns.len().max(1) as f64;

    // Harness: what tracing costs (instance by instance, then averaged),
    // and how far up the tail the rounds go.
    let overhead = mean_over(instances, |inst| {
        let plain = median_ns(&inst.plain_ns).max(1) as f64;
        100.0 * (median_ns(&inst.traced_ns) as f64 - plain) / plain
    });
    m.set("bench.trace_overhead_pct", overhead);
    // Per-layer times are as the clock read them; this is the machine's
    // speed while they were read (reference kernel time over nominal).
    m.set(
        "bench.speed_factor",
        median_factor(instances, Bracket::factor),
    );
    let hi = highest_supported_pct(plain_ns.len());
    m.set("bench.op_hi_pct", hi);
    m.set("bench.op_hi_ms", ms(quantile(&mut plain_ns, hi)));
    m.set("bench.op_n", plain_ns.len() as f64);

    // Set-up spans, averaged over the set-ups of this run.
    m.set("graph.gen_ms", setup.mean_ms("DagGenerator::generate"));
    m.set(
        "graph.oracle_ms",
        setup.mean_ms("closure::ptc_answer") + setup.mean_ms("oracle replies"),
    );
    m.set("core.dyn_build_ms", setup.mean_ms("DynamicClosure::build"));
    m.set(
        "core.snapshot_build_ms",
        setup.mean_ms("ClosedSnapshot::build"),
    );
    m.set(
        "serve.stream_gen_ms",
        setup.mean_ms("QueryStream::generate"),
    );

    // Counts per round, as the program's own counters returned them.
    let c = &all.counts;
    m.set("buffer.hits", c.buf_hits as f64 / rounds);
    m.set("buffer.misses", c.buf_misses as f64 / rounds);
    m.set("buffer.evictions", c.evictions as f64 / rounds);
    m.set(
        "buffer.dirty_writebacks",
        c.dirty_writebacks as f64 / rounds,
    );
    m.set(
        "buffer.hit_ratio",
        c.buf_hits as f64 / c.buf_requests.max(1) as f64,
    );
    m.set("storage.reads", (c.reads + c.frozen_reads) as f64 / rounds);
    m.set("storage.writes", c.writes as f64 / rounds);

    // Extra stages run on the first instance, untraced unless they say
    // otherwise, and compare with that instance's plain rounds.
    sp.set_on(false);
    let first = &mut instances[0];
    let plain_p50 = median_ns(&first.plain_ns).max(1);
    let store = match &mut first.work {
        Work::Engine(e) => {
            e.layer_metrics(sp, &all, plain_p50, m)?;
            if e.on_files() {
                StoreKind::File
            } else {
                StoreKind::Sim
            }
        }
        Work::Serving(s) => {
            s.layer_metrics(ctx, sp, &all, m)?;
            StoreKind::None
        }
        Work::Updates(u) => {
            u.layer_metrics(sp, &all, m);
            StoreKind::File
        }
    };
    // The reach probes run on this workload's own graph.
    let probe_graph = crate::common::generate_graph(ctx, 0);
    let unit = probe::run(ctx, &probe_graph, m)?;
    model::shares(&all, &unit, store, m.get("trace.events") * rounds, m);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Sizes;

    /// A smoke-sized run with `--seconds 0`: exactly the minimum rounds,
    /// so every total is a function of the seed alone.
    fn smoke_run(workload: &str, seed: u64, trace: bool) -> Outcome {
        // Tests run on parallel threads; each run gets its own directory.
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tc-benchmark-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let ctx = Ctx {
            workload: workload.to_string(),
            seed,
            seconds: 0.0,
            trace,
            sizes: Sizes::smoke(),
            work_dir: dir.join("work"),
            out_dir: dir.join("out"),
        };
        let outcome = run(&ctx).unwrap_or_else(|e| panic!("{workload} seed {seed}: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(outcome.failed, 0, "{workload}: wrong outputs");
        assert!(outcome.attempted > 1, "{workload}: checks did not run");
        outcome
    }

    fn num(o: &Outcome, key: &str) -> f64 {
        o.info.get(key).and_then(Json::as_f64).unwrap_or(-1.0)
    }

    fn digests(o: &Outcome) -> (String, String) {
        let field = |k: &str| o.info.get(k).map(Json::render).unwrap_or_default();
        (field("graph_digests"), field("stream_digests"))
    }

    #[test]
    fn same_seed_same_inputs_and_counts_other_seed_other_inputs() {
        for workload in spec::WORKLOADS {
            let (a, b, other) = (
                smoke_run(workload, 7, false),
                smoke_run(workload, 7, false),
                smoke_run(workload, 8, false),
            );
            // Digests, page_io, space_amp, bytes stored, rounds, queries,
            // buffer and storage counts.
            assert_eq!(a.info, b.info, "{workload}");
            assert!(num(&a, "buffer_hits") > 0.0, "{workload}");
            let (ga, sa) = digests(&a);
            let (go, so) = digests(&other);
            assert_ne!(ga, go, "{workload}: graph digest");
            if workload != "closure_batch" && workload != "selective_file" {
                assert_ne!(sa, so, "{workload}: stream digest");
            }
        }
    }

    #[test]
    fn traced_counts_repeat_exactly() {
        for workload in spec::WORKLOADS {
            let (a, b) = (smoke_run(workload, 7, true), smoke_run(workload, 7, true));
            assert_eq!(a.metrics.len(), spec::per_layer().len());
            for ((name, va, unit), (_, vb, _)) in a.metrics.iter().zip(&b.metrics) {
                if matches!(*unit, "count" | "bytes") {
                    assert_eq!(va, vb, "{workload}: {name}");
                }
            }
        }
    }

    #[test]
    fn serve_workloads_share_snapshot_and_stream() {
        let (cold, resident) = (
            smoke_run("serve_cold", 7, false),
            smoke_run("serve_resident", 7, false),
        );
        assert_eq!(digests(&cold), digests(&resident));
        // The small pool reads more pages for the same replies.
        assert!(num(&cold, "page_reads") > num(&resident, "page_reads"));
    }
}
