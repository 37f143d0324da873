//! Runs one experiment section by name — or `all` of them, as the
//! EXPERIMENTS.md-ready report (every table and figure of the paper's
//! evaluation section, the related-work comparison and the ablations) —
//! and prints the report to stdout.
//!
//! ```text
//! cargo run --release -p tc-bench --bin section -- table2 --quick
//! cargo run --release -p tc-bench --bin section -- figs8-12 --jobs 4
//! cargo run --release -p tc-bench --bin section -- all > report.md
//! ```
//!
//! The section name is the first argument; the rest are the usual
//! experiment options (`--quick`, `--full`, `--instances`, `--sets`,
//! `--jobs`, `--trace DIR` for per-cell JSONL event traces (fold one
//! into a profile report with `tcq analyze`), `--timing DIR` for
//! per-cell wall-clock span trees (non-gating; the report bytes are
//! identical with or without it),
//! `--backend sim|file` for the storage backend). Run with no
//! arguments to list the known sections. Report bytes on stdout are
//! identical for any `--jobs` value; timing chatter goes to stderr only.
//! Exits non-zero on an unknown section, bad options, or a failing cell.
use std::process::ExitCode;
use std::time::Instant;
use tc_bench::experiments::{section, SectionFn, SECTIONS};

fn usage() {
    eprintln!("usage: section <name>|all {}", tc_bench::opts::FLAGS);
    eprintln!(
        "known sections: {}",
        SECTIONS
            .iter()
            .map(|&(name, _)| name)
            .collect::<Vec<_>>()
            .join(", ")
    );
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = match args.next() {
        Some(name) => name,
        None => {
            usage();
            return ExitCode::FAILURE;
        }
    };
    let all = name.eq_ignore_ascii_case("all");
    let chosen: Vec<(&str, SectionFn)> = match section(&name) {
        Some(f) => vec![(name.as_str(), f)],
        None if all => SECTIONS.to_vec(),
        None => {
            eprintln!("error: unknown section `{name}`");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let opts = match tc_bench::ExpOpts::parse(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    if all {
        println!(
            "# Experiment report — A Performance Study of Transitive Closure Algorithms\n\n\
             Averaging: {} graph instance(s) per family × {} source set(s) per selection\n\
             (the paper uses 5 × 5; pass --full to match).\n",
            opts.instances, opts.source_sets
        );
    }
    for (name, f) in chosen {
        let t = Instant::now();
        match f(&opts) {
            // Fragments of the full report are separated by a blank line.
            Ok(report) if all => println!("{report}\n"),
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("[{name} failed: {e}]");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("[{name} done in {:.1}s]", t.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
