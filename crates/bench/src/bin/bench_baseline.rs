//! Regenerates (or checks) the committed performance baseline.
//!
//! ```text
//! # regenerate after an intentional performance change:
//! cargo run --release -p tc-bench --bin bench_baseline -- --jobs 4 > BENCH_5.json
//!
//! # CI regression gate — non-zero exit on any byte drift:
//! cargo run --release -p tc-bench --bin bench_baseline -- --check BENCH_5.json
//!
//! # same gate on the file-backed store (bytes must not change):
//! cargo run --release -p tc-bench --bin bench_baseline -- --backend file --check BENCH_5.json
//! ```
//!
//! The output is byte-deterministic at any `--jobs` value **and on
//! either backend**, so a plain byte comparison is the whole gate.
//! Wall time is `benchmark/run.sh`'s job, not this binary's.

use std::process::ExitCode;
use tc_bench::baseline::{baseline_json_on, diff_report};
use tc_storage::Backend;

fn usage() {
    eprintln!("usage: bench_baseline [--jobs N] [--backend sim|file|file:DIR] [--check PATH]");
}

fn main() -> ExitCode {
    let mut jobs = tc_bench::opts::default_jobs();
    let mut check: Option<String> = None;
    let mut backend = Backend::Sim;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                i += 1;
                jobs = match args.get(i).map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n >= 1 => n,
                    _ => {
                        eprintln!("error: --jobs takes a number ≥ 1");
                        usage();
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--backend" => {
                i += 1;
                backend = match args.get(i).map(|v| Backend::parse(v)) {
                    Some(Ok(b)) => b,
                    Some(Err(e)) => {
                        eprintln!("error: {e}");
                        usage();
                        return ExitCode::FAILURE;
                    }
                    None => {
                        eprintln!("error: --backend takes sim, file or file:DIR");
                        usage();
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--check" => {
                i += 1;
                match args.get(i) {
                    Some(path) => check = Some(path.clone()),
                    None => {
                        eprintln!("error: --check takes a path");
                        usage();
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("error: unknown argument {other}");
                usage();
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let current = match baseline_json_on(jobs, backend.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: baseline suite failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(path) = check else {
        print!("{current}");
        return ExitCode::SUCCESS;
    };
    let committed = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match diff_report(&current, &committed) {
        None => {
            eprintln!(
                "baseline OK: {path} matches ({} bytes, backend {})",
                current.len(),
                backend.name()
            );
            ExitCode::SUCCESS
        }
        Some(report) => {
            eprintln!("{report}");
            eprintln!(
                "regenerate intentionally with: cargo run --release -p tc-bench --bin bench_baseline > {path}"
            );
            ExitCode::FAILURE
        }
    }
}
