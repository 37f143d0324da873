//! The repo benchmark. Run from the root of a checkout:
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! bench [--seed N] [--seconds S]                        every workload, then a traced run
//! bench --aa K [--seed N]                               K untraced runs each -> benchmark/NOISE.json
//! bench --smoke                                         tiny sizes, shape checked against BENCHMARK.json
//! bench compare OLD.json NEW.json                       verdict per workload and metric
//! ```
//!
//! Everything is measured from outside, through the program's public
//! functions; see `benchmark/README.md`.

mod calib;
mod common;
mod compare;
mod engine;
mod json;
mod model;
mod oracle;
mod probe;
mod run;
mod serving;
mod spans;
mod spec;
mod stats;
mod suite;
mod updates;

use common::{Ctx, Sizes};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
       bench [--seed N] [--seconds S] [--smoke] [--out FILE]
       bench --aa K [--seed N] [--seconds S] [--out FILE]
       bench compare OLD.json NEW.json";

/// Where the benchmark keeps its outputs, relative to the checkout root.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        smoke: false,
        aa: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--aa" => {
                let k: usize = value()?.parse().map_err(|_| "--aa takes a count")?;
                if !(1..=100).contains(&k) {
                    return Err("--aa takes a count from 1 to 100".into());
                }
                a.aa = Some(k);
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn one_run(a: &Args, workload: &str) -> Result<bool, String> {
    if !spec::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (one of {:?})",
            spec::WORKLOADS
        ));
    }
    let out_dir = PathBuf::from(OUT_DIR);
    let ctx = Ctx {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds.ok_or("--seconds is required with --workload")?,
        trace: a.trace,
        sizes: if a.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        work_dir: out_dir.join(format!("work-{}", std::process::id())),
        out_dir,
    };
    let outcome = run::run(&ctx)?;
    println!("info {}", outcome.info.render());
    for (name, value, unit) in &outcome.raw {
        println!("raw {name} {value} {unit}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} {value} {unit}");
    }
    // A wrong output is reported in the result, not by the exit code.
    println!("{}", outcome.result_json().render());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [old, new] => compare::compare(old, new).map(|any_worse| !any_worse),
            _ => Err("compare takes two result files".to_string()),
        }
    } else {
        parse(&args).and_then(|a| match &a.workload {
            Some(w) => one_run(&a, w),
            None => {
                let runs = a.aa.unwrap_or(1);
                let default_out = if a.aa.is_some() {
                    "benchmark/NOISE.json".into()
                } else if a.smoke {
                    PathBuf::from(OUT_DIR).join("smoke.json")
                } else {
                    PathBuf::from(OUT_DIR).join("result.json")
                };
                let suite = suite::SuiteArgs {
                    seed: a.seed,
                    seconds: a.seconds,
                    runs,
                    traced: a.aa.is_none(),
                    smoke: a.smoke,
                    out: a.out.clone().unwrap_or(default_out),
                };
                suite::run(&suite, std::path::Path::new("BENCHMARK.json")).map(|()| true)
            }
        })
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
