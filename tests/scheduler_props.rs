//! Property-based tests for the experiment cell scheduler, on the
//! in-workspace `tc-det` harness (seeded cases, greedy shrinking —
//! replay a failure with the printed `TC_DET_SEED=...`).
//!
//! The property: for *any* subset of cells, *any* worker count and *any*
//! per-cell latency jitter, the worker pool both `run_cells` and the
//! serve loop run on (`tc_det::run_indexed`) returns exactly what the
//! serial inline path returns, position by position. The jitter is a
//! sleep in the job handed to the pool; it shakes the worker
//! interleavings, so a pass means the reassembly really is
//! scheduling-independent, not just lucky.

use std::sync::OnceLock;
use std::time::Duration;
use tc_study::det::check::{self, Checker};
use tc_study::det::{require_eq, run_indexed, Rng};

use tc_bench::corpus::family;
use tc_bench::experiments::{run_cells, Cell, CellOutput, CellTask, ExpError, QuerySpec, Sinks};
use tc_study::core::prelude::*;
use tc_study::obs::SpanRecorder;
use tc_study::trace::Tracer;

// Compile-time audit: everything that crosses the worker pool's thread
// boundary must be Send (and the shared inputs Sync).
const _: fn() = || {
    fn sendable<T: Send>() {}
    fn shareable<T: Sync>() {}
    sendable::<Cell>();
    shareable::<Cell>();
    sendable::<CellOutput>();
    sendable::<ExpError>();
    sendable::<tc_bench::ExpOpts>();
};

/// A small, cheap, heterogeneous cell pool: sparse families only
/// (f = 2), high-selectivity queries, one Stats and one Shape probe.
fn pool() -> &'static Vec<Cell> {
    static POOL: OnceLock<Vec<Cell>> = OnceLock::new();
    POOL.get_or_init(|| {
        let cfg = SystemConfig::with_buffer(10);
        let mut cells = vec![
            Cell {
                fam: family("G1"),
                instance: 0,
                set: 0,
                task: CellTask::Stats,
            },
            Cell {
                fam: family("G2"),
                instance: 0,
                set: 0,
                task: CellTask::Shape,
            },
        ];
        for (fam, algorithm, query, instance, set) in [
            ("G1", Algorithm::Btc, QuerySpec::Ptc(2), 0, 0),
            ("G1", Algorithm::Btc, QuerySpec::Ptc(2), 0, 1),
            ("G1", Algorithm::Jkb2, QuerySpec::Ptc(2), 0, 0),
            ("G1", Algorithm::Btc, QuerySpec::Full, 0, 0),
            ("G2", Algorithm::Btc, QuerySpec::Ptc(2), 0, 0),
            ("G2", Algorithm::Jkb2, QuerySpec::Ptc(3), 1, 0),
            ("G2", Algorithm::Srch, QuerySpec::Ptc(2), 0, 0),
            ("G3", Algorithm::Btc, QuerySpec::Ptc(2), 0, 0),
            ("G3", Algorithm::Bj, QuerySpec::Ptc(2), 1, 1),
        ] {
            cells.push(Cell {
                fam: family(fam),
                instance,
                set,
                task: CellTask::Query {
                    algorithm,
                    query,
                    cfg: cfg.clone(),
                },
            });
        }
        cells
    })
}

/// A cell output's canonical form: the full Debug rendering minus the
/// one field outside the determinism contract — `elapsed` is host
/// wall-clock (and is never rendered into a report fragment; the tables
/// print `estimated_cpu_seconds` instead, see `CostMetrics::cpu_ops`).
fn canon(o: &CellOutput) -> String {
    let s = format!("{o:?}");
    match s.find("elapsed: ") {
        Some(start) => {
            let end = s[start..]
                .find(", ")
                .map(|i| start + i + 2)
                .unwrap_or(s.len());
            format!("{}{}", &s[..start], &s[end..])
        }
        None => s,
    }
}

/// Serial (jobs = 1, no jitter) outputs for the whole pool, in canonical
/// form — the byte-level baseline every scheduled run must reproduce.
fn baseline() -> &'static Vec<String> {
    static BASELINE: OnceLock<Vec<String>> = OnceLock::new();
    BASELINE.get_or_init(|| {
        run_cells(pool(), 1, Sinks::None)
            .unwrap_or_else(|e| panic!("serial baseline failed: {e}"))
            .iter()
            .map(canon)
            .collect()
    })
}

/// One generated schedule: which pool cells (with repetition allowed),
/// how many workers, what per-cell latency jitter.
type Schedule = (Vec<usize>, usize, Vec<u64>);

fn random_schedule(rng: &mut Rng) -> Schedule {
    let n = pool().len();
    let picks = check::vec_of(rng, 1..(n + 4), |r| r.random_range(0..n));
    let jobs = rng.random_range(1..9usize);
    let jitter = check::vec_of(rng, 0..6, |r| r.random_range(0..400u64));
    (picks, jobs, jitter)
}

fn shrink_schedule((picks, jobs, jitter): &Schedule) -> Vec<Schedule> {
    let mut out: Vec<Schedule> = check::shrink_vec(picks)
        .into_iter()
        .filter(|p| !p.is_empty())
        .map(|p| (p, *jobs, jitter.clone()))
        .collect();
    if !jitter.is_empty() {
        out.push((picks.clone(), *jobs, Vec::new()));
    }
    if *jobs > 1 {
        out.push((picks.clone(), jobs - 1, jitter.clone()));
    }
    out
}

/// Scheduled output ≡ serial output, for any subset × jobs × jitter.
#[test]
fn any_schedule_reproduces_the_serial_outputs() {
    let _ = baseline(); // build outside the measured cases
    Checker::new("any_schedule_reproduces_the_serial_outputs")
        .cases(10)
        .run(random_schedule, shrink_schedule, |(picks, jobs, jitter)| {
            let cells: Vec<Cell> = picks.iter().map(|&i| pool()[i].clone()).collect();
            let out = run_indexed(*jobs, cells.len(), |_, i| {
                if !jitter.is_empty() {
                    std::thread::sleep(Duration::from_micros(jitter[i % jitter.len()]));
                }
                cells[i].execute(Tracer::disabled(), SpanRecorder::disabled())
            })
            .map_err(|e| format!("schedule failed: {e}"))?;
            require_eq!(out.len(), cells.len());
            // Position-by-position equality against the serial baseline
            // (covers both values and canonical ordering), plus an
            // aggregate CostMetrics fold like the report tables do.
            let mut ops = 0u64;
            for (slot, (&i, o)) in picks.iter().zip(&out).enumerate() {
                require_eq!(canon(o), baseline()[i].clone(), "slot {slot}");
                if let CellOutput::Metrics(m) = o {
                    ops = ops.wrapping_add(m.cpu_ops());
                }
            }
            let mut expected_ops = 0u64;
            for &i in picks {
                if let CellOutput::Metrics(m) =
                    &run_cells(&pool()[i..i + 1], 1, Sinks::None).map_err(|e| e.to_string())?[0]
                {
                    expected_ops = expected_ops.wrapping_add(m.cpu_ops());
                }
            }
            require_eq!(ops, expected_ops);
            Ok(())
        });
}

/// A failing cell surfaces as a typed `ExpError::Cell` with its
/// coordinates, at any worker count — never a worker panic, and never a
/// silent success.
#[test]
fn failures_surface_as_typed_errors_at_any_job_count() {
    // Arm the fault-injection substrate so every read attempt kills its
    // page: the run *must* fail, deterministically, with a typed
    // StorageError the scheduler wraps into a coordinate-bearing
    // ExpError::Cell.
    let mut cfg = SystemConfig::with_buffer(10);
    cfg.fault = Some(tc_study::storage::FaultConfig::new(41).permanent_reads(1.0));
    let bad = Cell {
        fam: family("G1"),
        instance: 0,
        set: 1,
        task: CellTask::Query {
            algorithm: Algorithm::Btc,
            query: QuerySpec::Ptc(2),
            cfg,
        },
    };
    let mut cells = vec![bad];
    cells.extend(pool().iter().cloned());
    for jobs in [1usize, 2, 5] {
        match run_cells(&cells, jobs, Sinks::None) {
            Err(ExpError::Cell {
                fam,
                instance,
                set,
                algorithm,
                ..
            }) => {
                // The failing cell is index 0, which always runs, and
                // the pool reports the lowest-index error that ran.
                assert_eq!(
                    (fam, instance, set, algorithm),
                    ("G1", 0, 1, Some(Algorithm::Btc)),
                    "jobs={jobs}: wrong cell reported"
                );
            }
            Err(e) => panic!("jobs={jobs}: expected a Cell error, got: {e}"),
            Ok(_) => panic!("jobs={jobs}: faulted run reported success"),
        }
    }
}
