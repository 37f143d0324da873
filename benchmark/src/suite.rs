//! The whole benchmark in one command: every workload in a process of its
//! own, untraced for the end-to-end metrics and then traced for the
//! per-layer ones; `--aa K` repeats the untraced part K times to measure
//! run-to-run noise; `--smoke` does it all at tiny sizes and checks the
//! output's shape against `BENCHMARK.json`.

use crate::json::Json;
use crate::spec::{self, Declared};
use crate::stats::{median_f, spread};
use std::path::{Path, PathBuf};
use std::process::Command;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: Option<f64>,
    /// Untraced runs per workload; run `i` uses seed `seed + i`.
    pub runs: usize,
    pub traced: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

struct ChildRun {
    stdout: String,
    result: Json,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) failed: {}",
            u8::from(trace),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    Ok(ChildRun { stdout, result })
}

fn metric_values(result: &Json) -> Vec<(String, f64, String)> {
    result
        .get("metrics")
        .map(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, entry)| {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let unit = entry
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            (name.clone(), value, unit)
        })
        .collect()
}

/// The smoke assertions on one child's output: every declared name is
/// printed exactly once, is well formed, has its unit, and the run's
/// correctness checks ran and passed.
fn check_shape(
    workload: &str,
    run: &ChildRun,
    declared: &[(String, String)],
) -> Result<(), String> {
    let printed: Vec<Vec<&str>> = run
        .stdout
        .lines()
        .filter(|l| l.starts_with("metric "))
        .map(|l| l.split_whitespace().collect())
        .collect();
    for (name, unit) in declared {
        if !spec::valid_name(name) {
            return Err(format!("{workload}: bad metric name {name:?}"));
        }
        let lines: Vec<&Vec<&str>> = printed
            .iter()
            .filter(|f| f.get(1) == Some(&name.as_str()))
            .collect();
        if lines.len() != 1 {
            return Err(format!("{workload}: {name} printed {} times", lines.len()));
        }
        if lines[0].get(3) != Some(&unit.as_str()) || unit.is_empty() {
            return Err(format!(
                "{workload}: {name} printed without its unit {unit:?}"
            ));
        }
    }
    if printed.len() != declared.len() {
        return Err(format!(
            "{workload}: {} metrics printed, {} declared",
            printed.len(),
            declared.len()
        ));
    }
    let in_result = metric_values(&run.result);
    if in_result.len() != declared.len() || in_result.iter().any(|(_, v, _)| !v.is_finite()) {
        return Err(format!(
            "{workload}: result line does not carry every metric as a number"
        ));
    }
    let num = |k: &str| run.result.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
    if run.result.get("correct") != Some(&Json::Bool(true))
        || num("failed") != 0.0
        || num("attempted") < 1.0
    {
        return Err(format!(
            "{workload}: correctness checks did not all run and pass"
        ));
    }
    Ok(())
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn run(args: &SuiteArgs, benchmark_json: &Path) -> Result<(), String> {
    let declared: Declared = spec::read_declared(benchmark_json)?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        0.2
    } else {
        declared.run_seconds
    });
    let e2e_names: Vec<(String, String)> = declared
        .end_to_end
        .iter()
        .map(|(n, u, _, _)| (n.clone(), u.clone()))
        .collect();

    let mut workloads = Vec::new();
    for workload in &declared.workloads {
        // ---- untraced runs: the end-to-end metrics
        let mut infos = Vec::new();
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        // The same timings as the clock read them, and the speed factor.
        let mut raw_series: Vec<(String, String, Vec<f64>)> = Vec::new();
        let push =
            |series: &mut Vec<(String, String, Vec<f64>)>, name: String, unit: String, value| {
                match series.iter_mut().find(|(n, _, _)| *n == name) {
                    Some((_, _, values)) => values.push(value),
                    None => series.push((name, unit, vec![value])),
                }
            };
        for i in 0..args.runs {
            let seed = args.seed + i as u64;
            eprintln!(
                "{workload}: untraced run {}/{} (seed {seed})",
                i + 1,
                args.runs
            );
            let run = run_child(workload, seed, seconds, false, args.smoke)?;
            if args.smoke {
                check_shape(workload, &run, &e2e_names)?;
            }
            if run.result.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{workload} seed {seed}: outputs were wrong"));
            }
            for (name, value, unit) in metric_values(&run.result) {
                push(&mut series, name, unit, value);
            }
            for line in run.stdout.lines().filter_map(|l| l.strip_prefix("raw ")) {
                if let [name, value, unit] = line.split_whitespace().collect::<Vec<_>>()[..] {
                    let value = value.parse().map_err(|_| format!("raw line {line:?}"))?;
                    push(&mut raw_series, name.to_string(), unit.to_string(), value);
                }
            }
            if let Some(info) = run.stdout.lines().find_map(|l| l.strip_prefix("info ")) {
                infos.push(Json::parse(info)?);
            }
        }
        println!(
            "\n== {workload}: end to end, {} run(s) of {seconds} s",
            args.runs
        );
        println!(
            "{:<14} {:>6} {:>14} {:>14} {:>14} {:>8} {:>6} {:>13}",
            "metric", "unit", "min", "median", "max", "spread", "bound", "spread/bound"
        );
        let mut e2e = Vec::new();
        for (name, unit, values) in &series {
            let (_, _, bound, better) = declared
                .end_to_end
                .iter()
                .find(|(n, _, _, _)| n == name)
                .ok_or(format!("{name} is not in BENCHMARK.json"))?;
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let (med, spr) = (median_f(values), spread(values));
            println!(
                "{name:<14} {unit:>6} {lo:>14.4} {med:>14.4} {hi:>14.4} {:>7.2}% {:>5.0}% {:>13.2}",
                spr * 100.0,
                bound * 100.0,
                spr / bound
            );
            let entry = Json::obj([
                ("unit", Json::str(unit.as_str())),
                ("better", Json::str(better.as_str())),
                ("bound", Json::Num(*bound)),
                (
                    "values",
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                ),
                ("min", Json::Num(lo)),
                ("median", Json::Num(med)),
                ("max", Json::Num(hi)),
                ("spread", Json::Num(spr)),
                ("spread_over_bound", Json::Num(spr / bound)),
            ]);
            e2e.push((name.clone(), entry));
        }

        let mut raw = Vec::new();
        for (name, unit, values) in &raw_series {
            let (med, spr) = (median_f(values), spread(values));
            println!(
                "{:<14} {unit:>6} {:>14} {med:>14.4} {:>14} {:>7.2}%",
                format!("raw {name}"),
                "",
                "",
                spr * 100.0
            );
            let entry = Json::obj([
                ("unit", Json::str(unit.as_str())),
                (
                    "values",
                    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                ),
                ("median", Json::Num(med)),
                ("spread", Json::Num(spr)),
            ]);
            raw.push((name.clone(), entry));
        }

        // ---- one traced run: the per-layer metrics
        let mut layers = Vec::new();
        if args.traced {
            eprintln!("{workload}: traced run (seed {})", args.seed);
            let run = run_child(workload, args.seed, seconds, true, args.smoke)?;
            if args.smoke {
                check_shape(workload, &run, &declared.per_layer)?;
            }
            println!("\n== {workload}: per layer (traced run)");
            for (name, value, unit) in metric_values(&run.result) {
                println!("{name:<32} {value:>18.4} {unit}");
                let entry = Json::obj([("unit", Json::str(unit)), ("value", Json::Num(value))]);
                layers.push((name, entry));
            }
        }
        let entry = Json::obj([
            ("runs", Json::Arr(infos)),
            ("end_to_end", Json::obj(e2e)),
            ("raw", Json::obj(raw)),
            ("per_layer", Json::obj(layers)),
        ]);
        workloads.push((workload.clone(), entry));
    }

    let doc = Json::obj([
        ("benchmark", Json::str("tc-benchmark-v1")),
        ("seed", Json::Num(args.seed as f64)),
        ("runs", Json::Num(args.runs as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&args.out, doc.render_pretty())
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("\nwrote {}", args.out.display());
    if args.smoke {
        println!("smoke: every metric of BENCHMARK.json printed once per workload; all checks ran and passed");
    }
    Ok(())
}
