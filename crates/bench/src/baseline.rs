//! The performance-baseline suite behind `BENCH_5.json`.
//!
//! A small canonical grid of cells — every algorithm on a mid-corpus
//! selection, a second family for contrast, and a replacement-policy
//! sweep — each run with its event stream teed into a trace digest
//! **and** a profile fold. The suite renders as deterministic JSON
//! (integer fields only, fixed key order, `\n` line ends), so a byte
//! comparison against the committed file is a tolerance-zero regression
//! gate: any drift in page I/O, buffer behaviour, CPU-work counts or
//! the event stream itself shows up as a diff. `gate.sh full
//! bench-baseline` regenerates the file at `--jobs 1` and `--jobs 2`
//! and fails on any difference, which simultaneously re-proves
//! scheduler determinism end-to-end.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! cargo run --release -p tc-bench --bin bench_baseline > BENCH_5.json
//! ```

use crate::corpus::family;
use crate::experiments::{run_cells, Cell, CellOutput, CellTask, ExpResult, QuerySpec, Sinks};
use std::sync::Arc;
use tc_core::prelude::*;
use tc_profile::{Profile, ProfileSink};
use tc_trace::{DigestSink, TeeSink, TraceDigest, Tracer};

/// Version tag of the suite definition. Bump when the cell grid itself
/// changes (not when measured numbers move — that is what the byte diff
/// is for). v2 appended the REACHINDEX cells (block 4).
pub const SUITE: &str = "tc-bench-baseline-v2";

/// One named cell of the baseline grid.
pub struct BaselineCell {
    /// Stable cell name (doubles as the JSON `name` field).
    pub name: String,
    /// The schedulable cell.
    pub cell: Cell,
    /// Buffer pool pages (echoed into the JSON).
    pub buffer: usize,
    /// Page replacement policy (echoed into the JSON).
    pub policy: PagePolicy,
}

fn query_cell(
    fam_name: &'static str,
    algorithm: Algorithm,
    sources: usize,
    buffer: usize,
    policy: PagePolicy,
    backend: &Backend,
) -> BaselineCell {
    let name = format!(
        "{}-{}-ptc{sources}-m{buffer}-{}",
        algorithm.name().to_ascii_lowercase(),
        fam_name.to_ascii_lowercase(),
        policy.name().to_ascii_lowercase()
    );
    BaselineCell {
        name,
        cell: Cell {
            fam: family(fam_name),
            instance: 0,
            set: 0,
            task: CellTask::Query {
                algorithm,
                query: QuerySpec::Ptc(sources),
                cfg: SystemConfig::with_buffer(buffer)
                    .page_policy(policy)
                    .backend(backend.clone()),
            },
        },
        buffer,
        policy,
    }
}

/// The canonical baseline grid, every cell stamped to run on `backend`,
/// in canonical order:
///
/// 1. all eight algorithms on G5, `ptc(10)`, `M = 10`, LRU;
/// 2. all eight algorithms on G8 (a wide, bushier family), `ptc(5)`,
///    `M = 20`, LRU;
/// 3. BTC on G5 under every replacement policy (`M = 10`);
/// 4. REACHINDEX on both families at the same coordinates as blocks
///    1–2 (appended in v2, so the pre-existing cells keep their order).
///
/// The grid (and with it every digest and metric) is backend-invariant
/// by design; `gate.sh full backend-matrix` proves it by regenerating
/// the baseline on the file backend and byte-comparing against the
/// committed `BENCH_5.json`.
pub fn suite(backend: &Backend) -> Vec<BaselineCell> {
    let cell = |fam, a, sources, buffer, p| query_cell(fam, a, sources, buffer, p, backend);
    let mut cells = Vec::new();
    for a in Algorithm::ALL {
        cells.push(cell("G5", a, 10, 10, PagePolicy::Lru));
    }
    for a in Algorithm::ALL {
        cells.push(cell("G8", a, 5, 20, PagePolicy::Lru));
    }
    for p in PagePolicy::ALL {
        if p == PagePolicy::Lru {
            continue; // already covered by the first block
        }
        cells.push(cell("G5", Algorithm::Btc, 10, 10, p));
    }
    cells.push(cell("G5", Algorithm::ReachIndex, 10, 10, PagePolicy::Lru));
    cells.push(cell("G8", Algorithm::ReachIndex, 5, 20, PagePolicy::Lru));
    cells
}

/// Everything measured about one baseline cell.
pub struct BaselineRow {
    /// The cell definition the measurements belong to.
    pub cell: BaselineCell,
    /// Engine metrics of the run.
    pub metrics: CostMetrics,
    /// FNV-1a digest of the full event stream.
    pub digest: TraceDigest,
    /// The profile folded live from the same stream.
    pub profile: Profile,
}

/// Runs the whole suite across `jobs` workers and returns one row per
/// cell, in suite order. Each cell's event stream is teed into a
/// [`DigestSink`] and a [`ProfileSink`], so digest, profile and metrics
/// all describe the same run.
fn run_suite(jobs: usize, backend: &Backend) -> ExpResult<Vec<BaselineRow>> {
    let suite = suite(backend);
    let cells: Vec<Cell> = suite.iter().map(|b| b.cell.clone()).collect();
    let sinks: Vec<(Arc<DigestSink>, Arc<ProfileSink>)> = suite
        .iter()
        .map(|_| (Arc::new(DigestSink::new()), Arc::new(ProfileSink::new())))
        .collect();
    let tracers: Vec<Tracer> = sinks
        .iter()
        .map(|(d, p)| Tracer::new(Arc::new(TeeSink::new(vec![d.clone(), p.clone()]))))
        .collect();
    let outputs = run_cells(&cells, jobs, Sinks::Each(&tracers))?;
    let mut rows = Vec::with_capacity(suite.len());
    for ((bc, out), (d, p)) in suite.into_iter().zip(outputs).zip(sinks) {
        let metrics = match out {
            CellOutput::Metrics(m) => *m,
            _ => {
                return Err(crate::experiments::ExpError::Internal(
                    "baseline cell produced non-metrics output".into(),
                ))
            }
        };
        rows.push(BaselineRow {
            cell: bc,
            metrics,
            digest: d.digest(),
            profile: p.finish(),
        });
    }
    Ok(rows)
}

/// Renders the suite's rows as the canonical `BENCH_5.json` bytes:
/// two-space indent, fixed key order, integers and strings only (hit
/// rates are basis points, the digest is a hex string), trailing
/// newline. Byte-identical across reruns, machines and `--jobs` values.
fn render_json(rows: &[BaselineRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"suite\": \"{SUITE}\",\n"));
    s.push_str("  \"cells\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let (m, p, d) = (&row.metrics, &row.profile, &row.digest);
        let fam = row.cell.cell.fam.name;
        let query = match &row.cell.cell.task {
            CellTask::Query { query, .. } => query.to_string(),
            _ => "?".to_string(),
        };
        let bt = p.buffer_totals();
        let mc = p.miss_totals();
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", row.cell.name));
        s.push_str(&format!(
            "      \"algorithm\": \"{}\",\n",
            m.algorithm.name()
        ));
        s.push_str(&format!("      \"family\": \"{fam}\",\n"));
        s.push_str(&format!("      \"query\": \"{query}\",\n"));
        s.push_str(&format!("      \"buffer\": {},\n", row.cell.buffer));
        s.push_str(&format!(
            "      \"policy\": \"{}\",\n",
            row.cell.policy.name()
        ));
        s.push_str(&format!(
            "      \"restructure_io\": [{}, {}],\n",
            m.restructure_io.reads, m.restructure_io.writes
        ));
        s.push_str(&format!(
            "      \"compute_io\": [{}, {}],\n",
            m.compute_io.reads, m.compute_io.writes
        ));
        s.push_str(&format!("      \"total_io\": {},\n", m.total_io()));
        s.push_str(&format!(
            "      \"read_hit_bp\": {},\n",
            bt.read_hit_bp()
                .map_or_else(|| "null".to_string(), |bp| bp.to_string())
        ));
        s.push_str(&format!(
            "      \"misses\": {{\"cold\": {}, \"capacity\": {}, \"self\": {}}},\n",
            mc.cold, mc.capacity, mc.self_refetch
        ));
        s.push_str(&format!("      \"max_resident\": {},\n", p.max_resident));
        s.push_str(&format!(
            "      \"tuples_generated\": {},\n",
            m.tuples_generated
        ));
        s.push_str(&format!("      \"cpu_ops\": {},\n", m.cpu_ops()));
        s.push_str(&format!("      \"trace_events\": {},\n", d.count));
        s.push_str(&format!("      \"trace_digest\": \"0x{:016X}\"\n", d.hash));
        s.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Runs the suite on `backend` and renders the canonical JSON in one
/// step. The rendered bytes must be identical for every backend — that
/// is the point of running it off-default.
pub fn baseline_json(jobs: usize, backend: &Backend) -> ExpResult<String> {
    Ok(render_json(&run_suite(jobs, backend)?))
}

/// Compares freshly rendered baseline bytes against the committed file,
/// returning a per-line description of the first few differences (the
/// regression report CI prints before failing).
pub fn diff_report(current: &str, committed: &str) -> Option<String> {
    if current == committed {
        return None;
    }
    let mut out = String::from("baseline drift detected:\n");
    let mut shown = 0;
    let mut cur = current.lines();
    let mut com = committed.lines();
    let mut lineno = 0usize;
    loop {
        let (a, b) = (com.next(), cur.next());
        lineno += 1;
        if a.is_none() && b.is_none() {
            break;
        }
        if a != b && shown < 8 {
            out.push_str(&format!(
                "  line {lineno}: committed {} | current {}\n",
                a.unwrap_or("<missing>"),
                b.unwrap_or("<missing>")
            ));
            shown += 1;
        }
    }
    if shown == 8 {
        out.push_str("  … (further differences elided)\n");
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_canonical_and_named_uniquely() {
        let s = suite(&Backend::Sim);
        assert_eq!(s.len(), 8 + 8 + 5 + 2);
        let mut names: Vec<&str> = s.iter().map(|b| b.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), s.len(), "duplicate baseline cell names");
        assert_eq!(s[0].name, "btc-g5-ptc10-m10-lru");
    }

    #[test]
    fn diff_report_pinpoints_changes() {
        assert!(diff_report("a\nb\n", "a\nb\n").is_none());
        let d = diff_report("a\nX\n", "a\nb\n").expect("diff");
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains('X'), "{d}");
    }

    #[test]
    fn render_json_shape_on_a_stub_row() {
        // Running the full suite belongs to the bin / CI gate; here we
        // only pin the JSON shape on a fabricated row.
        let row = BaselineRow {
            cell: query_cell("G5", Algorithm::Btc, 10, 10, PagePolicy::Lru, &Backend::Sim),
            metrics: CostMetrics::new(Algorithm::Btc),
            digest: TraceDigest {
                hash: 0xAB,
                count: 3,
            },
            profile: tc_profile::ProfileFold::new().finish(),
        };
        let j = render_json(std::slice::from_ref(&row));
        assert!(
            j.starts_with("{\n  \"suite\": \"tc-bench-baseline-v2\""),
            "{j}"
        );
        assert!(j.contains("\"name\": \"btc-g5-ptc10-m10-lru\""), "{j}");
        assert!(j.contains("\"query\": \"ptc(10)\""), "{j}");
        assert!(j.contains("\"read_hit_bp\": null"), "{j}");
        assert!(
            j.contains("\"trace_digest\": \"0x00000000000000AB\""),
            "{j}"
        );
        assert!(j.ends_with("  ]\n}\n"), "{j}");
        assert_eq!(j, render_json(std::slice::from_ref(&row)));
    }
}
