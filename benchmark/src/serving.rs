//! `serve_cold` and `serve_resident`: one frozen G5 snapshot, one seeded
//! closed-loop stream, two session shapes. A round is one
//! `Service::serve` pass over the whole stream with one worker; a query
//! is one request. Callers wait for replies, so the end-to-end numbers
//! are closed-loop throughput and service latency at the stated size.
//!
//! * `serve_cold`: pool of 8 pages and a 4-row hot-source cache, far
//!   smaller than the working set — the frozen store and the buffer
//!   *miss* path are on every request.
//! * `serve_resident`: pool of 16,384 pages and a 64-row cache — the
//!   whole snapshot fits, so the store and the miss path do nothing and
//!   the hit path, row decoding, reply building and dispatch remain.
//!
//! A change to the store or the miss path should move `serve_cold`
//! only; a change to the hit path moves both.

use crate::common::{generate_graph, graph_digest, input_seed, Ctx, Purpose, Tally};
use crate::oracle::ReplyOracle;
use crate::spans::Spans;
use crate::spec::Metrics;
use crate::stats::quantile;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tc_study::graph::Graph;
use tc_study::serve::{
    LoopMode, MixSpec, QueryStream, Request, ServeConfig, Service, Session, SessionConfig,
};
use tc_study::storage::PAGE_SIZE;
use tc_study::{ClosedSnapshot, SystemConfig};

/// Zipf skew of request sources.
const THETA: f64 = 0.8;
/// Open-loop latency limit on p99, from the due time.
const OPEN_LIMIT_US: f64 = 500.0;
/// Open-loop rates tried, requests per second.
const OPEN_RATES: [u64; 7] = [25_000, 50_000, 75_000, 100_000, 150_000, 200_000, 300_000];

pub fn session_config(workload: &str) -> SessionConfig {
    match workload {
        "serve_resident" => SessionConfig::default()
            .buffer_pages(16_384)
            .cache_sources(64),
        _ => SessionConfig::default().buffer_pages(8).cache_sources(4),
    }
}

pub struct Serving {
    pub graph: Graph,
    service: Service,
    stream: QueryStream,
    /// Oracle reply digest per client and sequence number.
    expected: Vec<Vec<u64>>,
    cfg: ServeConfig,
    user_tuples: u64,
    pub graph_digest: u64,
    pub stream_digest: u64,
}

fn kind_of(req: &Request) -> usize {
    match req {
        Request::Reach { .. } => 0,
        Request::Ptc { .. } => 1,
        Request::Path { .. } => 2,
    }
}

/// Request kinds in `kind_of` order: metric suffix and span name.
const KINDS: [(&str, &str); 3] = [
    ("reach", "Session::handle reach"),
    ("ptc", "Session::handle ptc"),
    ("path", "Session::handle path"),
];

impl Serving {
    pub fn setup(ctx: &Ctx, k: usize, sp: &mut Spans) -> Result<Serving, String> {
        let sizes = &ctx.sizes;
        let (graph, _) = sp.time("DagGenerator::generate", || generate_graph(ctx, k));
        let (snapshot, _) = sp.time("ClosedSnapshot::build", || {
            ClosedSnapshot::build(&graph, &SystemConfig::with_buffer(32))
        });
        let snapshot = snapshot.map_err(|e| e.to_string())?;
        let (stream, _) = sp.time("QueryStream::generate", || {
            QueryStream::generate(
                graph.n(),
                sizes.serve_clients,
                sizes.serve_per_client,
                MixSpec::MIXED,
                THETA,
                LoopMode::Closed,
                input_seed(ctx, Purpose::Queries, k as u64),
            )
        });
        let (expected, _) = sp.time("oracle replies", || {
            let oracle = ReplyOracle::new(&graph);
            (0..stream.clients())
                .map(|c| {
                    stream
                        .client(c)
                        .iter()
                        .map(|r| oracle.reply(r).digest())
                        .collect()
                })
                .collect()
        });
        let user_tuples = (graph.arc_count() + snapshot.closure_tuples()) as u64;
        Ok(Serving {
            graph_digest: graph_digest(&graph),
            stream_digest: stream.digest(),
            graph,
            service: Service::new(snapshot),
            stream,
            expected,
            cfg: ServeConfig::default()
                .workers(1)
                .session(session_config(&ctx.workload)),
            user_tuples,
        })
    }

    fn snapshot(&self) -> Arc<ClosedSnapshot> {
        self.service.snapshot()
    }

    pub fn measured_round(
        &mut self,
        sp: &mut Spans,
        t: &mut Tally,
        first: bool,
    ) -> Result<(), String> {
        let (report, round_ns) = sp.time("Service::serve", || {
            self.service.serve(&self.stream, &self.cfg)
        });
        let report = report.map_err(|e| e.to_string())?;
        t.round_ns.push(round_ns);
        t.model_wall_ns += round_ns;
        for (c, client) in report.clients.iter().enumerate() {
            for r in &client.records {
                t.query_ns.push(r.latency_ns);
                t.handle_ns += r.latency_ns;
                t.check(self.expected[c].get(r.seq) == Some(&r.digest), || {
                    format!(
                        "client {c} request {}: {:?}",
                        r.seq,
                        self.stream.client(c).get(r.seq)
                    )
                });
            }
            t.counts.add_buffer(&client.buffer);
        }
        t.check(report.replies() == self.stream.len(), || {
            "replies missing".into()
        });
        t.counts.frozen_reads += report.pages_read();
        t.work += report.replies() as u64;
        if first {
            t.page_io = report.pages_read();
            t.bytes_stored = (self.snapshot().pages().page_count() * PAGE_SIZE) as u64;
            t.space_amp = t.bytes_stored as f64 / (8.0 * self.user_tuples as f64);
        }
        Ok(())
    }

    /// One pass driven by the benchmark itself, a span per request: the
    /// per-kind handle times and the session's counters.
    fn session_pass(&self, sp: &mut Spans, m: &mut Metrics) -> Result<(), String> {
        let mut by_kind: [Vec<u64>; 3] = Default::default();
        let (mut lookups, mut hits, mut pages, mut requests) = (0, 0, 0, 0u64);
        for c in 0..self.stream.clients() {
            let open = sp.enter("Session::new");
            let mut session = Session::new(self.snapshot(), &self.cfg.session, c as u64);
            sp.exit(open);
            for (seq, req) in self.stream.client(c).iter().enumerate() {
                sp.set_round((c * self.stream.client(c).len() + seq) as u64);
                let k = kind_of(req);
                let (reply, ns) = sp.time(KINDS[k].1, || session.handle(req));
                let reply = reply.map_err(|e| e.to_string())?;
                if self.expected[c][seq] != reply.digest() {
                    return Err(format!("client {c} request {seq}: wrong reply"));
                }
                by_kind[k].push(ns);
            }
            let stats = session.stats();
            lookups += stats.cache_lookups;
            hits += stats.cache_hits;
            requests += stats.requests;
            pages += session.pages_read();
        }
        for (k, samples) in by_kind.iter_mut().enumerate() {
            m.set(
                &format!("serve.handle_p50_ns.{}", KINDS[k].0),
                quantile(samples, 50.0) as f64,
            );
            m.set(
                &format!("serve.handle_p99_ns.{}", KINDS[k].0),
                quantile(samples, 99.0) as f64,
            );
        }
        m.set("serve.pages_per_req", pages as f64 / requests.max(1) as f64);
        m.set("serve.cache_hit_ratio", hits as f64 / lookups.max(1) as f64);
        m.set("serve.session_open_us", sp.mean_ms("Session::new") * 1e3);
        Ok(())
    }

    /// Throughput with two workers over throughput with one.
    fn scale2(&self, m: &mut Metrics) -> Result<(), String> {
        let mut qps = [0.0f64; 2];
        for (i, workers) in [1usize, 2].into_iter().enumerate() {
            let cfg = self.cfg.clone().workers(workers);
            let mut best = 0.0f64;
            for _ in 0..2 {
                let t0 = Instant::now();
                let report = self
                    .service
                    .serve(&self.stream, &cfg)
                    .map_err(|e| e.to_string())?;
                best = best.max(report.replies() as f64 / t0.elapsed().as_secs_f64());
            }
            qps[i] = best;
        }
        m.set("serve.scale2_ratio", qps[1] / qps[0]);
        Ok(())
    }

    /// Open loop: one generator thread sends requests at their due times,
    /// one worker answers them through a `Session`. Latency counts from
    /// the due time, so a stall is charged to every request it delays.
    fn open_loop(&self, ctx: &Ctx, m: &mut Metrics) -> Result<(), String> {
        let mut max_ok = 0.0;
        let mut late_p99 = 0u64;
        for (i, &rate) in OPEN_RATES.iter().enumerate() {
            let stream = QueryStream::generate(
                self.graph.n(),
                1,
                ctx.sizes.open_requests,
                MixSpec::MIXED,
                THETA,
                LoopMode::Open {
                    mean_gap_ns: 1_000_000_000 / rate,
                },
                input_seed(ctx, Purpose::OpenLoop, i as u64),
            );
            let run = self.open_run(&stream)?;
            let p99_us = run.p99_ns as f64 / 1e3;
            if rate <= 75_000 {
                m.set(&format!("serve.open.p99_us.r{}k", rate / 1000), p99_us);
            }
            late_p99 = late_p99.max(run.late_p99_ns);
            if p99_us <= OPEN_LIMIT_US && !run.backlog_grew {
                max_ok = rate as f64;
            } else if rate > 75_000 {
                break;
            }
        }
        m.set("serve.open.late_p99_us", late_p99 as f64 / 1e3);
        m.set("serve.open.max_rate_ok", max_ok);
        Ok(())
    }

    fn open_run(&self, stream: &QueryStream) -> Result<OpenRun, String> {
        let requests = stream.client(0);
        let arrivals = stream.arrivals_ns(0);
        let oracle = ReplyOracle::new(&self.graph);
        let expected: Vec<u64> = requests.iter().map(|r| oracle.reply(r).digest()).collect();
        let mut session = Session::new(self.snapshot(), &self.cfg.session, 0);
        let (tx, rx) = mpsc::channel::<(usize, Instant)>();
        let start = Instant::now() + Duration::from_millis(2);
        let mut latency = Vec::with_capacity(requests.len());
        let mut wrong = 0usize;
        let mut late = std::thread::scope(|scope| -> Result<Vec<u64>, String> {
            let generator = scope.spawn(move || {
                let mut late = Vec::with_capacity(arrivals.len());
                for (i, &at) in arrivals.iter().enumerate() {
                    let due = start + Duration::from_nanos(at);
                    // Spin: a sleep's wake-up jitter is larger than the gaps.
                    let mut now = Instant::now();
                    while now < due {
                        std::hint::spin_loop();
                        now = Instant::now();
                    }
                    late.push(now.duration_since(due).as_nanos() as u64);
                    if tx.send((i, due)).is_err() {
                        break;
                    }
                }
                late
            });
            for (i, due) in rx {
                let reply = session.handle(&requests[i]).map_err(|e| e.to_string())?;
                latency.push(due.elapsed().as_nanos() as u64);
                wrong += usize::from(reply.digest() != expected[i]);
            }
            generator
                .join()
                .map_err(|_| "open-loop generator panicked".to_string())
        })?;
        if wrong > 0 || latency.len() != requests.len() {
            return Err(format!("open loop: {wrong} wrong replies"));
        }
        // A backlog grows when the last tenth waits much longer than the first.
        let tenth = (latency.len() / 10).max(1);
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
        let (head, tail) = (
            mean(&latency[..tenth]),
            mean(&latency[latency.len() - tenth..]),
        );
        Ok(OpenRun {
            backlog_grew: tail > 4.0 * head + 1e3 * OPEN_LIMIT_US,
            p99_ns: quantile(&mut latency, 99.0),
            late_p99_ns: quantile(&mut late, 99.0),
        })
    }

    pub fn layer_metrics(
        &mut self,
        ctx: &Ctx,
        sp: &mut Spans,
        traced: &Tally,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let replies = traced.work.max(1) as f64;
        m.set(
            "serve.dispatch_ns",
            traced.model_wall_ns.saturating_sub(traced.handle_ns) as f64 / replies,
        );
        m.set("storage.bytes_on_disk", traced.bytes_stored as f64);
        sp.set_on(true);
        self.session_pass(sp, m)?;
        sp.set_on(false);
        self.scale2(m)?;
        self.open_loop(ctx, m)
    }
}

struct OpenRun {
    p99_ns: u64,
    late_p99_ns: u64,
    backlog_grew: bool,
}
