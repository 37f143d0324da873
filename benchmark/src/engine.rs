//! `closure_batch` and `selective_file`: the `tcq` path, timed from
//! outside. A round reads the generated edge file, parses it, checks it
//! is acyclic, builds the database and answers one query per algorithm;
//! each `Database::run` is a query.
//!
//! * `closure_batch` computes the full closure of G5 on the simulated
//!   disk with BTC, HYB and SPN: the engine's compute loop, the
//!   successor store and the buffer *hit* path do nearly all the work.
//! * `selective_file` answers a 100-source selection on G8 on the file
//!   backend with SRCH, JKB, JKB2 and REACHINDEX, then syncs and reopens
//!   the store: restructuring, the buffer *miss* path and real file I/O
//!   dominate, and the compute loop is small.

use crate::common::{
    answer_digest, dir_bytes, generate_graph, graph_digest, input_seed, median_ns, ms, Ctx,
    Purpose, Tally,
};
use crate::spans::Spans;
use crate::spec::Metrics;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tc_study::cli::LabeledGraph;
use tc_study::det::Rng;
use tc_study::graph::{closure, NodeId};
use tc_study::obs::{SpanRecorder, SpanTree};
use tc_study::storage::{Backend, FileStore, PAGE_SIZE};
use tc_study::trace::{DigestSink, Event, TraceSink, Tracer};
use tc_study::{Algorithm, Database, Query, SystemConfig};

pub struct EngineSpec {
    pub buffer_pages: usize,
    pub file_backend: bool,
    pub algorithms: &'static [Algorithm],
    /// `None` asks for the full closure.
    pub sources: Option<usize>,
}

/// The spec of this run's engine workload.
pub fn spec(ctx: &Ctx) -> EngineSpec {
    if ctx.workload == "selective_file" {
        EngineSpec {
            buffer_pages: ctx.sizes.select_m,
            file_backend: true,
            algorithms: &[
                Algorithm::Srch,
                Algorithm::Jkb,
                Algorithm::Jkb2,
                Algorithm::ReachIndex,
            ],
            sources: Some(ctx.sizes.select_sources),
        }
    } else {
        EngineSpec {
            buffer_pages: ctx.sizes.closure_m,
            file_backend: false,
            algorithms: &[Algorithm::Btc, Algorithm::Hyb, Algorithm::Spn],
            sources: None,
        }
    }
}

/// What the oracle-checked reference run of one algorithm produced;
/// every timed run must reproduce it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Reference {
    answer_tuples: u64,
    total_io: u64,
}

/// How one round runs. The defaults are the measured configuration.
#[derive(Clone)]
pub struct RoundMode {
    /// Let the engine check each answer against its own oracle (set-up).
    validated: bool,
    /// Keep answers in memory and compare their digest with the oracle's.
    collect: bool,
    /// Record the engine's own phase spans.
    observed: bool,
    /// Run on the simulated disk whatever the spec says.
    force_sim: bool,
    tracer: Tracer,
}

impl RoundMode {
    fn measured(observed: bool) -> RoundMode {
        RoundMode {
            validated: false,
            collect: true,
            observed,
            force_sim: false,
            tracer: Tracer::disabled(),
        }
    }
}

pub struct Engine {
    spec: EngineSpec,
    edge_file: PathBuf,
    store_dir: PathBuf,
    /// Source labels as they appear in the edge file.
    source_labels: Vec<String>,
    oracle_digest: u64,
    oracle_tuples: u64,
    arcs: u64,
    reference: BTreeMap<&'static str, Reference>,
    pub graph_digest: u64,
    /// Engine phase spans of the traced rounds, per algorithm.
    phase_ns: BTreeMap<(&'static str, &'static str), Vec<u64>>,
}

fn label(v: NodeId) -> String {
    format!("v{v}")
}

/// An algorithm's name in metric names, and the name of its run's span.
fn names(a: Algorithm) -> (&'static str, &'static str) {
    match a {
        Algorithm::Btc => ("btc", "Database::run btc"),
        Algorithm::Hyb => ("hyb", "Database::run hyb"),
        Algorithm::Spn => ("spn", "Database::run spn"),
        Algorithm::Srch => ("srch", "Database::run srch"),
        Algorithm::Jkb => ("jkb", "Database::run jkb"),
        Algorithm::Jkb2 => ("jkb2", "Database::run jkb2"),
        Algorithm::ReachIndex => ("reachindex", "Database::run reachindex"),
        Algorithm::Bj => ("bj", "Database::run bj"),
        Algorithm::Seminaive => ("seminaive", "Database::run seminaive"),
    }
}

impl Engine {
    /// Generates instance `k` of the inputs from the seed, writes the edge
    /// file and computes the oracle answer. Instance 0 also runs a round
    /// with the engine's own oracle validation on; the other instances
    /// take their reference counts from their first round, and every
    /// round of every instance is checked against the oracle's answer.
    pub fn setup(ctx: &Ctx, spec: EngineSpec, k: usize, sp: &mut Spans) -> Result<Engine, String> {
        let (g, _) = sp.time("DagGenerator::generate", || generate_graph(ctx, k));
        let mut text = String::with_capacity(g.arc_count() * 12);
        for (u, v) in g.arcs() {
            text.push_str(&format!("{} {}\n", label(u), label(v)));
        }
        std::fs::create_dir_all(&ctx.work_dir).map_err(|e| e.to_string())?;
        let edge_file = ctx.work_dir.join(format!("edges-{k}.txt"));
        std::fs::write(&edge_file, &text).map_err(|e| e.to_string())?;

        // The program numbers nodes in order of appearance, so the oracle
        // works on the graph as the program will see it.
        let lg = LabeledGraph::parse(&text)?;
        let source_labels: Vec<String> = match spec.sources {
            None => Vec::new(),
            // A stratified draw: one source from each of `count` equal runs of
            // the generator's node order (which is topological). A node's
            // reach shrinks with its position, so a plain uniform draw makes
            // the answer size swing +-8 % from set to set.
            Some(count) => {
                let mut rng = Rng::from_seed(input_seed(ctx, Purpose::Sources, k as u64));
                let stride = (g.n() / count).max(1);
                (0..count)
                    .filter_map(|j| {
                        let stratum: Vec<NodeId> = (j * stride..((j + 1) * stride).min(g.n()))
                            .map(|v| v as NodeId)
                            .filter(|&v| lg.id(&label(v)).is_some())
                            .collect();
                        rng.choose(&stratum).copied()
                    })
                    .map(label)
                    .collect()
            }
        };
        let query = Engine::query_for(&lg, &source_labels)?;
        let (oracle, _) = sp.time("closure::ptc_answer", || {
            let sources = query.effective_sources(lg.graph.n());
            closure::ptc_answer(&lg.graph, &sources)
        });
        let mut engine = Engine {
            spec,
            edge_file,
            store_dir: ctx.work_dir.join(format!("store-{k}")),
            source_labels,
            oracle_digest: answer_digest(&oracle),
            oracle_tuples: oracle.len() as u64,
            arcs: lg.graph.arc_count() as u64,
            reference: BTreeMap::new(),
            graph_digest: graph_digest(&g),
            phase_ns: BTreeMap::new(),
        };
        if k == 0 {
            let reference_mode = RoundMode {
                validated: true,
                ..RoundMode::measured(false)
            };
            let mut scratch = Tally::default();
            engine.round(sp, &mut scratch, &reference_mode, true)?;
            if scratch.failed > 0 {
                return Err("reference round disagrees with the oracle".into());
            }
        }
        Ok(engine)
    }

    fn query_for(lg: &LabeledGraph, labels: &[String]) -> Result<Query, String> {
        if labels.is_empty() {
            return Ok(Query::full());
        }
        let ids: Option<Vec<NodeId>> = labels.iter().map(|l| lg.id(l)).collect();
        Ok(Query::partial(
            ids.ok_or("source label missing from the edge file")?,
        ))
    }

    /// One round. `first` rounds also record the exact counts.
    pub fn round(
        &mut self,
        sp: &mut Spans,
        t: &mut Tally,
        mode: &RoundMode,
        first: bool,
    ) -> Result<(), String> {
        let file_backend = self.spec.file_backend && !mode.force_sim;
        if file_backend {
            let _ = std::fs::remove_dir_all(&self.store_dir);
        }
        let mut cfg = SystemConfig::with_buffer(self.spec.buffer_pages).traced(mode.tracer.clone());
        if file_backend {
            cfg = cfg.backend(Backend::File {
                dir: Some(self.store_dir.clone()),
            });
        }
        if mode.validated {
            cfg = cfg.validated();
        } else if mode.collect {
            cfg = cfg.collecting();
        }

        let round = sp.enter("round");
        let parse = sp.enter("read + LabeledGraph::parse");
        let text = std::fs::read_to_string(&self.edge_file).map_err(|e| e.to_string())?;
        let lg = LabeledGraph::parse(&text)?;
        sp.exit(parse);
        let (acyclic, _) = sp.time("Graph::is_acyclic", || lg.graph.is_acyclic());
        if !acyclic {
            return Err("generated graph is cyclic".into());
        }
        let query = Engine::query_for(&lg, &self.source_labels)?;
        let (db, _) = sp.time("Database::build_for", || {
            Database::build_for(&lg.graph, true, &cfg)
        });
        let mut db = db.map_err(|e| e.to_string())?;

        let mut results = Vec::with_capacity(self.spec.algorithms.len());
        let mut run_ns = 0;
        for &algo in self.spec.algorithms {
            let (recorder, collector) = if mode.observed {
                let (r, c) = SpanRecorder::collecting();
                (r, Some(c))
            } else {
                (SpanRecorder::disabled(), None)
            };
            let run_cfg = cfg.clone().observed(recorder);
            let (res, ns) = sp.time(names(algo).1, || db.run(&query, algo, &run_cfg));
            let res = res.map_err(|e| format!("{}: {e}", algo.name()))?;
            run_ns += ns;
            if let Some(c) = collector {
                self.record_phases(algo, &c.tree());
            }
            results.push((algo, res));
        }
        // One query sample per round: the mean `Database::run` time. The
        // algorithms differ several-fold, so a median over single runs
        // would sit on the boundary between two of them; per-algorithm
        // times are layer metrics (`core.run_ms.*`).
        t.query_ns.push(run_ns / self.spec.algorithms.len() as u64);

        // Durability and space: what is on the store once the answers
        // are out. The engine syncs after every run; this sync is the
        // explicit flush point of the round.
        let mut store = db.take_store().map_err(|e| e.to_string())?;
        let (synced, _) = sp.time("PageStore::sync", || store.sync());
        synced.map_err(|e| e.to_string())?;
        let stored_bytes = if file_backend {
            dir_bytes(&self.store_dir)
        } else {
            (store.page_count() * PAGE_SIZE) as u64
        };
        db.restore_store(store);
        drop(db);
        if file_backend {
            let (reopened, _) = sp.time("FileStore::open", || FileStore::open(&self.store_dir));
            let reopened = reopened.map_err(|e| e.to_string())?;
            t.check(reopened.recovery().is_clean(), || {
                "reopened store is not clean".into()
            });
        }
        let round_ns = sp.exit(round);
        t.round_ns.push(round_ns);
        t.model_wall_ns += round_ns;
        if file_backend {
            let _ = std::fs::remove_dir_all(&self.store_dir);
        }

        // Checks, outside the timed section.
        let mut round_io = 0;
        let mut round_tuples = 0;
        for (algo, res) in &results {
            let got = Reference {
                answer_tuples: res.metrics.answer_tuples,
                total_io: res.metrics.total_io(),
            };
            let name = algo.name();
            let reference = *self.reference.entry(names(*algo).0).or_insert(got);
            t.check(reference == got, || {
                format!("{name}: {got:?}, reference {reference:?}")
            });
            t.check(got.answer_tuples == self.oracle_tuples, || {
                format!("{name}: answer size")
            });
            if let Some(answer) = &res.answer {
                t.check(answer_digest(answer) == self.oracle_digest, || {
                    format!("{name}: answer")
                });
            }
            t.counts.add_run(&res.metrics);
            t.counts.syncs += 1;
            round_io += got.total_io;
            round_tuples += got.answer_tuples;
        }
        t.counts.syncs += 1;
        t.work += round_tuples;
        if first {
            t.page_io = round_io;
            t.bytes_stored = stored_bytes;
            t.space_amp = stored_bytes as f64 / (8.0 * (self.arcs + round_tuples) as f64);
        }
        Ok(())
    }

    fn record_phases(&mut self, algo: Algorithm, tree: &SpanTree) {
        let total = |path: &[&str]| tree.find(path).map_or(0, |n| n.total_ns);
        let write_out = total(&["run", "compute", "write_out"]);
        let a = names(algo).0;
        let mut push = |phase, ns| self.phase_ns.entry((phase, a)).or_default().push(ns);
        push("restructure", total(&["run", "restructure"]));
        push(
            "compute",
            total(&["run", "compute"]).saturating_sub(write_out),
        );
        push("write_out", write_out);
    }

    /// Whether this workload's database lives in real files.
    pub fn on_files(&self) -> bool {
        self.spec.file_backend
    }

    pub fn measured_round(
        &mut self,
        sp: &mut Spans,
        t: &mut Tally,
        first: bool,
    ) -> Result<(), String> {
        let mode = RoundMode::measured(sp.is_on());
        self.round(sp, t, &mode, first)
    }

    /// The traced run's extra stages and this layer's metrics.
    pub fn layer_metrics(
        &mut self,
        sp: &mut Spans,
        traced: &Tally,
        plain_round_ns: u64,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let rounds = traced.round_ns.len().max(1) as f64;
        m.set(
            "cli.read_parse_ms",
            sp.mean_ms("read + LabeledGraph::parse"),
        );
        m.set("graph.acyclic_check_ms", sp.mean_ms("Graph::is_acyclic"));
        m.set("core.build_ms", sp.mean_ms("Database::build_for"));
        m.set("storage.bytes_on_disk", traced.bytes_stored as f64);
        for &algo in self.spec.algorithms {
            let (a, span) = names(algo);
            let run = sp.agg(span);
            m.set(&format!("core.run_ms.{a}"), sp.mean_ms(span));
            for phase in ["restructure", "compute", "write_out"] {
                let samples = self.phase_ns.get(&(phase, a)).cloned().unwrap_or_default();
                m.set(
                    &format!("core.{phase}_ms.{a}"),
                    crate::common::mean_ms(&samples),
                );
            }
            if self.spec.sources.is_none() && run.count > 0 {
                // Mean answer size of a run, over the instances.
                let tuples = traced.work as f64 / (rounds * self.spec.algorithms.len() as f64);
                m.set(
                    &format!("core.ns_per_tuple.{a}"),
                    run.total_ns as f64 / run.count as f64 / tuples,
                );
            }
        }
        m.set(
            "core.tuples_generated",
            traced.counts.tuples_generated as f64 / rounds,
        );
        m.set("core.unions", traced.counts.unions as f64 / rounds);
        m.set(
            "core.list_fetches",
            traced.counts.list_fetches as f64 / rounds,
        );

        // Extra rounds, each compared with the plain (untraced) round.
        sp.set_on(false);
        let extra = |engine: &mut Engine, sp: &mut Spans, mode: RoundMode| -> Result<u64, String> {
            let mut t = Tally::default();
            for _ in 0..2 {
                engine.round(sp, &mut t, &mode, false)?;
            }
            if t.failed > 0 {
                return Err("an extra-stage round produced a wrong answer".into());
            }
            Ok(median_ns(&t.round_ns))
        };
        let pct = |with: u64| 100.0 * (with as f64 - plain_round_ns as f64) / plain_round_ns as f64;

        let observed = RoundMode::measured(true);
        m.set("obs.span_overhead_pct", pct(extra(self, sp, observed)?));

        if self.spec.sources.is_none() {
            let no_collect = RoundMode {
                collect: false,
                ..RoundMode::measured(false)
            };
            let without = extra(self, sp, no_collect)?;
            m.set("core.answer_collect_ms", ms(plain_round_ns) - ms(without));
        }

        let counter = Arc::new(CountingSink::default());
        let counting = RoundMode {
            tracer: Tracer::new(counter.clone()),
            ..RoundMode::measured(false)
        };
        let mut t = Tally::default();
        self.round(sp, &mut t, &counting, false)?;
        m.set("trace.events", counter.0.load(Ordering::Relaxed) as f64);

        let digesting = RoundMode {
            tracer: Tracer::new(Arc::new(DigestSink::new())),
            ..RoundMode::measured(false)
        };
        m.set(
            "trace.digest_overhead_pct",
            pct(extra(self, sp, digesting)?),
        );

        if self.spec.file_backend {
            let on_sim = RoundMode {
                force_sim: true,
                ..RoundMode::measured(false)
            };
            let sim = extra(self, sp, on_sim)?;
            m.set("storage.backend_delta_ms", ms(plain_round_ns) - ms(sim));
        }
        Ok(())
    }
}

/// Counts events; the cheapest sink there can be.
#[derive(Default)]
struct CountingSink(AtomicU64);

impl TraceSink for CountingSink {
    fn emit(&self, _ev: Event) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}
