//! `tcq` — transitive-closure queries over edge-list files, powered by
//! the SIGMOD'94 study's disk-based engine.
//!
//! ```text
//! tcq deps.txt --sources libssl --print-answer
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tc_study::cli::{AnalyzeArgs, CliArgs, CliError, Command, LabeledGraph, ServeArgs, UpdateArgs};
use tc_study::core::prelude::*;
use tc_study::graph::UpdateStream;
use tc_study::obs::SpanTree;
use tc_study::profile::{fold_jsonl, render, ProfileFold};
use tc_study::serve::{LoopMode, QueryStream, ServeConfig, ServeObs, Service, SessionConfig};
use tc_study::trace::{JsonlSink, Tracer};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match Command::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return match e {
                CliError::Help => ExitCode::SUCCESS,
                CliError::Bad(_) => ExitCode::FAILURE,
            };
        }
    };
    let result = match &cmd {
        Command::Run(cli) => run(cli),
        Command::Analyze(a) => analyze(a),
        Command::Update(u) => update(u),
        Command::Serve(s) => serve(s),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("tcq: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Reads and parses the edge list at `path`. `needs_dag` names the
/// operation that cannot take a cyclic input (a self-loop line is a
/// cycle of length one).
fn load(path: &str, needs_dag: Option<&str>) -> Result<LabeledGraph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lg = LabeledGraph::parse(&text)?;
    match needs_dag {
        Some(what) if !lg.graph.is_acyclic() || !lg.self_loops.is_empty() => Err(format!(
            "{path}: cyclic input — {what} requires a DAG (condense cycles first)"
        )),
        _ => Ok(lg),
    }
}

/// An open `--trace` file: its path and the sink writing it.
type TraceFile<'a> = Option<(&'a str, Arc<JsonlSink<BufWriter<File>>>)>;

/// Creates the `--trace` file, if one was asked for, and routes `cfg`'s
/// event stream into it: one JSONL sink for the whole invocation.
fn open_trace(
    path: &Option<String>,
    cfg: SystemConfig,
) -> Result<(SystemConfig, TraceFile<'_>), String> {
    let Some(path) = path.as_deref() else {
        return Ok((cfg, None));
    };
    let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let sink = Arc::new(JsonlSink::new(BufWriter::new(file)));
    Ok((cfg.traced(Tracer::new(sink.clone())), Some((path, sink))))
}

/// Flushes the `--trace` file and reports the first deferred write error.
fn finish_trace(trace: TraceFile<'_>) -> Result<(), String> {
    if let Some((path, sink)) = trace {
        sink.finish().map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace written to {path}");
    }
    Ok(())
}

/// Folds a `--trace` JSONL file into a profile report on stdout;
/// `--timing` additionally renders a wall-clock span tree (self/child
/// attribution) next to it.
fn analyze(args: &AnalyzeArgs) -> Result<(), String> {
    let file = File::open(&args.input).map_err(|e| format!("{}: {e}", args.input))?;
    let mut fold = ProfileFold::new()
        .with_top_k(args.top_k)
        .with_interval(args.interval);
    let events =
        fold_jsonl(BufReader::new(file), &mut fold).map_err(|e| format!("{}: {e}", args.input))?;
    eprintln!("{}: folded {events} events", args.input);
    print!("{}", render(&fold.finish()));
    if let Some(path) = &args.timing {
        let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let tree = SpanTree::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
        println!("\n== wall-clock spans (non-gating) ==");
        print!("{}", tree.render());
    }
    Ok(())
}

/// Materializes the input's closure, then maintains it under a seeded
/// update stream, one metered maintenance run per batch.
fn update(args: &UpdateArgs) -> Result<(), String> {
    let lg = load(&args.input, Some("dynamic maintenance"))?;
    eprintln!(
        "{}: {} nodes, {} arcs",
        args.input,
        lg.graph.n(),
        lg.graph.arc_count(),
    );

    let cfg = SystemConfig::with_buffer(args.buffer).backend(args.backend.clone());
    let (cfg, trace) = open_trace(&args.trace, cfg)?;

    let mut dyn_tc = DynamicClosure::build(&lg.graph, &cfg).map_err(|e| e.to_string())?;
    eprintln!(
        "materialized closure: {} tuples on {} pages ({} backend)",
        dyn_tc.tuple_count(),
        dyn_tc.closure_pages(),
        dyn_tc.backend_name(),
    );
    let stream = UpdateStream::generate(
        &lg.graph,
        args.stream,
        args.batches,
        args.batch_size,
        lg.graph.n().max(1),
        args.seed,
    );
    let mut total_io = 0u64;
    let mut total_elapsed = Duration::ZERO;
    for (i, batch) in stream.batches().iter().enumerate() {
        let res = dyn_tc.apply(batch).map_err(|e| e.to_string())?;
        total_io += res.metrics.total_io();
        total_elapsed += res.metrics.elapsed;
        eprintln!(
            "batch {}: {} ops, +{} -{} tuples, {} page I/O ({} restructure + {} compute), {:.1} ms",
            i + 1,
            batch.len(),
            res.inserted,
            res.removed,
            res.metrics.total_io(),
            res.metrics.restructure_io.total(),
            res.metrics.compute_io.total(),
            res.metrics.elapsed.as_secs_f64() * 1e3,
        );
    }
    finish_trace(trace)?;
    eprintln!(
        "{} stream done: {} ops in {} batches, closure now {} tuples, {} total page I/O, {:.1} ms",
        args.stream.name(),
        stream.op_count(),
        stream.batches().len(),
        dyn_tc.tuple_count(),
        total_io,
        total_elapsed.as_secs_f64() * 1e3,
    );
    Ok(())
}

/// Freezes the input's closure into an immutable snapshot and serves a
/// seeded query mix against it; `--updates N` additionally applies N
/// update batches mid-serve, publishing a fresh snapshot after each.
fn serve(args: &ServeArgs) -> Result<(), String> {
    let lg = load(&args.input, Some("serving"))?;
    if lg.graph.n() == 0 {
        return Err(format!("{}: empty graph, nothing to serve", args.input));
    }
    let cfg = SystemConfig::with_buffer(args.buffer.max(8)).backend(args.backend.clone());
    let mut dyn_tc = DynamicClosure::build(&lg.graph, &cfg).map_err(|e| e.to_string())?;
    let snapshot = dyn_tc.freeze(0).map_err(|e| e.to_string())?;
    eprintln!(
        "{}: {} nodes, {} arcs; snapshot epoch 0 ({} closure tuples, {} backend)",
        args.input,
        lg.graph.n(),
        lg.graph.arc_count(),
        snapshot.closure_tuples(),
        snapshot.origin(),
    );

    let service = Service::new(snapshot);
    let stream = QueryStream::generate(
        lg.graph.n(),
        args.clients,
        args.per_client,
        args.mix,
        args.theta,
        LoopMode::Closed,
        args.seed,
    );
    // Wall-clock metrics are always recorded; they never touch the
    // deterministic stdout summary. `--metrics` additionally exposes
    // them as a file, refreshed while the serve runs.
    let obs = ServeObs::enabled();
    let serve_cfg = ServeConfig::default()
        .workers(args.workers)
        .observed(obs.clone())
        .session(
            SessionConfig::default()
                .buffer_pages(args.buffer)
                .cache_sources(args.cache),
        );

    let stop_metrics = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let metrics_worker = args.metrics.as_ref().map(|path| {
            let (stop, obs) = (&stop_metrics, &obs);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(200));
                    // Mid-serve dumps are best-effort; the final dump
                    // after the scope reports errors.
                    let _ = write_metrics(path, obs);
                }
            })
        });
        let publisher = if args.updates > 0 {
            let updates = UpdateStream::generate(
                &lg.graph,
                tc_study::graph::StreamKind::Mixed,
                args.updates,
                args.batch_size,
                lg.graph.n().max(1),
                args.seed,
            );
            let service = &service;
            let dyn_tc = &mut dyn_tc;
            Some(scope.spawn(move || -> Result<usize, String> {
                let mut published = 0;
                for (i, batch) in updates.batches().iter().enumerate() {
                    dyn_tc.apply(batch).map_err(|e| e.to_string())?;
                    service.publish(dyn_tc.freeze(i as u64 + 1).map_err(|e| e.to_string())?);
                    published += 1;
                }
                Ok(published)
            }))
        } else {
            None
        };
        let report = service
            .serve(&stream, &serve_cfg)
            .map_err(|e| e.to_string());
        stop_metrics.store(true, Ordering::Relaxed);
        if let Some(h) = metrics_worker {
            if h.join().is_err() {
                return Err("metrics writer panicked".to_string());
            }
        }
        let published = match publisher.map(|h| h.join()) {
            Some(Ok(result)) => result?,
            Some(Err(_)) => return Err("update publisher panicked".to_string()),
            None => 0,
        };
        if published > 0 {
            eprintln!(
                "published {published} snapshot(s) mid-serve; final epoch {}",
                service.snapshot().epoch()
            );
        }
        report
    })?;

    let buffer = report.buffer();
    let [reach, ptc, path] = report.pages_by_kind();
    println!(
        "served {} replies: stream={:016x} digest={:016x} pages_read={} \
         reach/ptc/path={reach}/{ptc}/{path} cache={}/{} buffer={}/{}",
        report.replies(),
        stream.digest(),
        report.digest(),
        report.pages_read(),
        report.cache_hits(),
        report.cache_lookups(),
        buffer.hits,
        buffer.misses,
    );
    // Closing wall-time summary off the tc-obs histograms (stderr only,
    // never gating); the recorder above is always armed.
    if let (Some(service), Some(queue)) = (obs.service_histogram(), obs.queue_wait_histogram()) {
        eprintln!(
            "wall-time (non-gating): {:.0} q/s, service p50 {} ns, p95 {} ns, p99 {} ns, \
             queue-wait p50 {} ns, p99 {} ns, workers {}",
            report.qps(),
            service.percentile(50.0),
            service.percentile(95.0),
            service.percentile(99.0),
            queue.percentile(50.0),
            queue.percentile(99.0),
            args.workers,
        );
    }
    if let Some(path) = &args.metrics {
        write_metrics(path, &obs)?;
        eprintln!("metrics written to {path} (Prometheus text)");
    }
    Ok(())
}

/// Writes the armed recorder's metrics as Prometheus text at `path`.
fn write_metrics(path: &str, obs: &ServeObs) -> Result<(), String> {
    match obs.render_prometheus() {
        Some(prom) => std::fs::write(path, prom).map_err(|e| format!("{path}: {e}")),
        None => Ok(()),
    }
}

fn run(cli: &CliArgs) -> Result<(), String> {
    let lg = load(&cli.input, None)?;
    eprintln!(
        "{}: {} nodes, {} arcs{}",
        cli.input,
        lg.graph.n(),
        lg.graph.arc_count(),
        if lg.graph.is_acyclic() {
            ""
        } else {
            " (cyclic: condensing)"
        },
    );

    if !lg.self_loops.is_empty() {
        let loops = lg.self_loops.len();
        eprintln!("{loops} self-loop(s): cycles of length one, each such node reaches itself");
    }

    let sources: Vec<u32> = cli
        .sources
        .iter()
        .map(|s| lg.id(s).ok_or_else(|| format!("unknown node {s:?}")))
        .collect::<Result<_, _>>()?;
    let query = if sources.is_empty() {
        Query::full()
    } else {
        Query::partial(sources)
    };
    let cfg = SystemConfig::with_buffer(cli.buffer)
        .collecting()
        .backend(cli.backend.clone());
    // Cyclic inputs trace every condensed sub-run into the same file.
    let (cfg, trace) = open_trace(&cli.trace, cfg)?;

    // Cyclic inputs go through the condensation pipeline; DAGs through
    // the engine directly (optionally advisor-routed).
    let (algo, mut answer, metrics) = if lg.graph.is_acyclic() {
        let mut db = Database::build_for(&lg.graph, true, &cfg).map_err(|e| e.to_string())?;
        let (algo, res) = match cli.algorithm {
            Some(a) => (a, db.run(&query, a, &cfg).map_err(|e| e.to_string())?),
            None => db.run_advised(&query, &cfg).map_err(|e| e.to_string())?,
        };
        (algo, res.answer.unwrap_or_default(), res.metrics)
    } else {
        let algo = cli.algorithm.unwrap_or(Algorithm::Btc);
        let res = run_cyclic(&lg.graph, &query, algo, &cfg).map_err(|e| e.to_string())?;
        (algo, res.answer, res.metrics)
    };

    finish_trace(trace)?;

    // A self-loop is a cycle of length one: a queried source that has
    // one reaches itself, the convention `run_cyclic` applies to the
    // members of a larger component (which may already have said so).
    if !lg.self_loops.is_empty() {
        let queried = |v: &u32| query.sources().is_none_or(|s| s.contains(v));
        answer.extend(lg.self_loops.iter().filter(|v| queried(v)).map(|&v| (v, v)));
        answer.sort_unstable();
        answer.dedup();
    }

    eprintln!(
        "{algo}: {} reachability facts, {} simulated page I/O ({} restructure + {} compute), est. {:.1}s at 20ms/IO",
        answer.len(),
        metrics.total_io(),
        metrics.restructure_io.total(),
        metrics.compute_io.total(),
        metrics.estimated_io_seconds,
    );
    if cli.print_answer {
        for (s, v) in &answer {
            println!("{}\t{}", lg.label(*s), lg.label(*v));
        }
    }
    Ok(())
}
