//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repo root carries the same lists for
//! the driver; `--smoke` and a unit test hold the two together.

use crate::json::Json;
use std::collections::BTreeMap;

/// Workload names, in run order.
pub const WORKLOADS: [&str; 5] = [
    "closure_batch",
    "selective_file",
    "serve_cold",
    "serve_resident",
    "update_publish",
];

/// `(name, unit)` of every end-to-end metric. Every workload reports
/// every one of them (the driver's contract), so each is defined in
/// terms of the workload's *round* and *query*; see README.md.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("round_p50_ms", "ms"),
    ("work_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("page_io", "count"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

const ALGOS: [&str; 7] = ["btc", "hyb", "spn", "srch", "jkb", "jkb2", "reachindex"];

/// `(name, unit)` of every per-layer metric, grouped by layer (the
/// repo's crates). A layer that does no work on a workload reads 0
/// there, which is the prediction for a workload that bypasses it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    // cli, graph
    add("cli.read_parse_ms", "ms");
    add("graph.acyclic_check_ms", "ms");
    add("graph.gen_ms", "ms");
    add("graph.oracle_ms", "ms");
    // core: engine
    add("core.build_ms", "ms");
    for a in ALGOS {
        add(&format!("core.run_ms.{a}"), "ms");
    }
    for phase in ["restructure", "compute", "write_out"] {
        for a in ALGOS {
            add(&format!("core.{phase}_ms.{a}"), "ms");
        }
    }
    for a in &ALGOS[..3] {
        add(&format!("core.ns_per_tuple.{a}"), "ns");
    }
    add("core.tuples_generated", "count");
    add("core.unions", "count");
    add("core.list_fetches", "count");
    add("core.answer_collect_ms", "ms");
    // core: dynamic, snapshot
    add("core.dyn_build_ms", "ms");
    add("core.snapshot_build_ms", "ms");
    add("core.apply_ms", "ms");
    add("core.apply_hi_ms", "ms");
    add("core.freeze_ms", "ms");
    add("core.apply_page_io", "count");
    add("core.delta_tuples", "count");
    // succ
    add("succ.append_ns", "ns");
    add("succ.scan_ns", "ns");
    add("succ.bitvec_ns", "ns");
    // buffer
    add("buffer.hits", "count");
    add("buffer.misses", "count");
    add("buffer.evictions", "count");
    add("buffer.dirty_writebacks", "count");
    add("buffer.hit_ratio", "ratio");
    add("buffer.hit_ns", "ns");
    add("buffer.miss_ns", "ns");
    add("buffer.dirty_evict_ns", "ns");
    // storage
    add("storage.reads", "count");
    add("storage.writes", "count");
    for op in [
        "sim_read",
        "sim_write",
        "file_read",
        "file_write",
        "frozen_read",
        "alloc",
    ] {
        add(&format!("storage.{op}_ns"), "ns");
    }
    add("storage.file_sync_ms", "ms");
    add("storage.file_open_ms", "ms");
    add("storage.bytes_on_disk", "bytes");
    add("storage.backend_delta_ms", "ms");
    // reach
    add("reach.build_ms", "ms");
    add("reach.lookup_ns", "ns");
    add("reach.mem_lookup_ns", "ns");
    add("reach.width", "count");
    // serve
    for q in ["p50", "p99"] {
        for kind in ["reach", "ptc", "path"] {
            add(&format!("serve.handle_{q}_ns.{kind}"), "ns");
        }
    }
    add("serve.pages_per_req", "count");
    add("serve.cache_hit_ratio", "ratio");
    add("serve.dispatch_ns", "ns");
    add("serve.session_open_us", "us");
    add("serve.rebind_us", "us");
    add("serve.publish_us", "us");
    add("serve.stream_gen_ms", "ms");
    add("serve.scale2_ratio", "ratio");
    for rate in ["r25k", "r50k", "r75k"] {
        add(&format!("serve.open.p99_us.{rate}"), "us");
    }
    add("serve.open.late_p99_us", "us");
    add("serve.open.max_rate_ok", "1/s");
    // trace, profile, obs
    add("trace.emit_off_ns", "ns");
    add("trace.emit_digest_ns", "ns");
    add("trace.emit_jsonl_ns", "ns");
    add("trace.events", "count");
    add("trace.digest_overhead_pct", "%");
    add("profile.fold_ns", "ns");
    add("obs.span_ns", "ns");
    add("obs.hist_record_ns", "ns");
    add("obs.span_overhead_pct", "%");
    // cost model, harness
    for layer in ["succ", "buffer", "storage", "trace", "dispatch", "residual"] {
        add(&format!("model.{layer}_share"), "ratio");
    }
    add("bench.clock_ns", "ns");
    add("bench.speed_factor", "ratio");
    add("bench.trace_overhead_pct", "%");
    add("bench.op_hi_ms", "ms");
    add("bench.op_hi_pct", "%");
    add("bench.op_n", "count");
    out
}

/// Metric values collected during a run, by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Names set that `listed` does not contain: a typo in a workload.
    pub fn unlisted<'a>(&'a self, listed: &[(String, &str)]) -> Vec<&'a str> {
        self.0
            .keys()
            .filter(|k| !listed.iter().any(|(n, _)| n == *k))
            .map(String::as_str)
            .collect()
    }
}

/// Whether `name` obeys the driver's naming rule.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(ok)
}

/// What `BENCHMARK.json` lists, as this file's tables list it.
pub struct Declared {
    pub workloads: Vec<String>,
    /// `(name, unit, bound, better)`.
    pub end_to_end: Vec<(String, String, f64, String)>,
    pub per_layer: Vec<(String, String)>,
    pub run_seconds: f64,
}

pub fn read_declared(path: &std::path::Path) -> Result<Declared, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let names = |key: &str| -> Vec<&Json> {
        doc.get(key)
            .map(|v| v.as_arr().iter().collect())
            .unwrap_or_default()
    };
    let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    Ok(Declared {
        workloads: names("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect(),
        end_to_end: names("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                (
                    field(m, "name"),
                    field(m, "unit"),
                    bound,
                    field(m, "better"),
                )
            })
            .collect(),
        per_layer: names("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect(),
        run_seconds: doc.get("run_seconds").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_obey_the_rule_and_are_unique() {
        let layer = per_layer();
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut all: Vec<&str> = layer.iter().map(|(n, _)| n.as_str()).collect();
        all.extend(END_TO_END.iter().map(|(n, _)| *n));
        all.extend(WORKLOADS);
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let unique: std::collections::BTreeSet<&&str> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let d = read_declared(&path).unwrap();
        assert_eq!(d.workloads, WORKLOADS);
        let e2e: Vec<(&str, &str)> = d
            .end_to_end
            .iter()
            .map(|(n, u, _, _)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(d.per_layer, layer);
        for (name, _, bound, better) in &d.end_to_end {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: {bound}");
            assert!(better == "lower" || better == "higher", "{name}: {better}");
        }
    }
}
