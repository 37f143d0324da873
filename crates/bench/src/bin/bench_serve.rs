//! Serving gate: plays seeded query mixes against a frozen
//! canonical-G5 snapshot and prints the deterministic track.
//!
//! ```text
//! cargo run --release -p tc-bench --bin bench_serve -- --workers 4
//!
//! # CI byte-diff gate — stdout must be identical at any worker count:
//! bench_serve --workers 1 > a.txt && bench_serve --workers 4 > b.txt && diff a.txt b.txt
//! ```
//!
//! Stdout carries, per mix: stream digest, aggregate reply digest,
//! replies, total pages read, and hot-source cache hit rate. It never
//! mentions the worker count or any time, so a plain byte comparison
//! across `--workers` values is the whole gate. Serving wall time is
//! measured by `benchmark/run.sh` (`serve_cold`, `serve_resident`).

use std::process::ExitCode;
use tc_core::{ClosedSnapshot, SystemConfig};
use tc_graph::DagGenerator;
use tc_serve::{LoopMode, MixSpec, QueryStream, ServeConfig, Service, CANONICAL_SERVE_SEED};
use tc_storage::Backend;

fn usage() {
    eprintln!(
        "usage: bench_serve [--workers N] [--clients N] [--per-client N] \
         [--backend sim|file|file:DIR]"
    );
}

struct Opts {
    workers: usize,
    clients: usize,
    per_client: usize,
    backend: Backend,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workers: 4,
        clients: 4,
        per_client: 64,
        backend: Backend::Sim,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = args.get(i);
        match flag {
            "--workers" | "--clients" | "--per-client" => {
                let n: usize = value
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("{flag} takes a number ≥ 1"))?;
                match flag {
                    "--workers" => o.workers = n,
                    "--clients" => o.clients = n,
                    _ => o.per_client = n,
                }
            }
            "--backend" => {
                o.backend = Backend::parse(value.map(String::as_str).unwrap_or(""))
                    .map_err(|e| e.to_string())?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(o)
}

/// The three canonical mixes of the serving study.
const MIXES: [(&str, MixSpec); 3] = [
    ("reach-heavy", MixSpec::REACH_HEAVY),
    ("ptc-heavy", MixSpec::PTC_HEAVY),
    ("mixed", MixSpec::MIXED),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };

    // Canonical G5 corpus, frozen once; every mix serves the same
    // snapshot.
    let g = DagGenerator::new(2000, 5.0, 200).seed(7).generate();
    let cfg = SystemConfig::with_buffer(32).backend(o.backend.clone());
    let snapshot = match ClosedSnapshot::build(&g, &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: snapshot build failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bench_serve v1: corpus G5 n=2000 seed=7, origin={}, closure={} tuples",
        snapshot.origin(),
        snapshot.closure_tuples()
    );

    let service = Service::new(snapshot);
    for (name, mix) in MIXES {
        let stream = QueryStream::generate(
            g.n(),
            o.clients,
            o.per_client,
            mix,
            0.8,
            LoopMode::Closed,
            CANONICAL_SERVE_SEED,
        );
        let serve_cfg = ServeConfig::default().workers(o.workers);
        let report = match service.serve(&stream, &serve_cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: serve failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Deterministic track: no worker count, no times.
        let (hits, lookups) = (report.cache_hits(), report.cache_lookups());
        println!(
            "mix {name}: stream={:016x} replies={} digest={:016x} pages_read={} \
             cache={hits}/{lookups}",
            stream.digest(),
            report.replies(),
            report.digest(),
            report.pages_read(),
        );
    }
    ExitCode::SUCCESS
}
