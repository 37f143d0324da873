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
use tc_bench::baseline::{baseline_json, diff_report};
use tc_bench::opts::{backend_value, default_jobs, flag_value};
use tc_storage::Backend;

/// `(jobs, backend, --check path)` off the command line.
fn parse(
    mut args: impl Iterator<Item = String>,
) -> Result<(usize, Backend, Option<String>), String> {
    let (mut jobs, mut backend, mut check) = (default_jobs(), Backend::Sim, None);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--jobs" => jobs = flag_value(&flag, "a number ≥ 1", &mut args)?,
            "--backend" => backend = backend_value(&flag, &mut args)?,
            "--check" => check = Some(flag_value(&flag, "a path", &mut args)?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if jobs < 1 {
        return Err("--jobs takes a number ≥ 1".into());
    }
    Ok((jobs, backend, check))
}

fn main() -> ExitCode {
    let (jobs, backend, check) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: bench_baseline [--jobs N] [--backend sim|file|file:DIR] [--check PATH]"
            );
            return ExitCode::FAILURE;
        }
    };

    let current = match baseline_json(jobs, &backend) {
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
