//! Determinism-under-timing suite: arming the wall-clock layer leaves
//! every gated byte untouched.
//!
//! `obs_overhead.rs` shows spans are free when disabled; this suite
//! shows they are *inert* when enabled. Three gates, one per pinned
//! surface:
//!
//! - the nine golden G5 event-trace digests (`golden_trace.rs`) hold
//!   with a span collector armed on the same run;
//! - an experiment section renders byte-identical report fragments
//!   with and without `--timing`, while the timing sidecar files are
//!   themselves well-formed span trees;
//! - the canonical serve reproduces its golden reply digest, page and
//!   cache counters (`golden_serve.rs`) with `ServeObs` enabled, at 1
//!   and 4 workers, while the latency histograms demonstrably filled;
//!   and `tcq serve --metrics` exports the same deterministic totals it
//!   prints on stdout.
//!
//! The golden constants are deliberately the same values as in their
//! home tests — if a pin regenerates there, regenerate it here too
//! (both failure messages print the new table).

use std::sync::Arc;
use tc_bench::corpus::canonical;
use tc_bench::experiments::section;
use tc_bench::ExpOpts;
use tc_study::core::prelude::*;
use tc_study::graph::DagGenerator;
use tc_study::obs::{SpanRecorder, SpanTree};
use tc_study::serve::{QueryStream, ServeConfig, ServeObs, Service};
use tc_study::storage::TempDir;
use tc_study::trace::{DigestSink, Tracer};

/// Pinned (algorithm, digest hash, event count) per algorithm — the
/// same table as `golden_trace.rs`, which is its source of truth.
const GOLDEN_TRACES: [(&str, u64, u64); 9] = [
    ("BTC", 0x3A5C88BAA9EF2B5D, 9042354),
    ("HYB", 0x8E22CD8777127090, 9851246),
    ("BJ", 0x40344C1B0C2E6162, 8195880),
    ("SRCH", 0x5A858A8E9679B7DB, 83555),
    ("SPN", 0x82AB2A39C6C99B86, 8222554),
    ("JKB", 0xFF5B7B2E48B88139, 126376),
    ("JKB2", 0x2D3F04FED5DF35AA, 139752),
    ("SEMINAIVE", 0x03CAE93C00223F48, 117821),
    ("REACHINDEX", 0xBA809325D2444186, 61492),
];

/// Serving pins — the same values as `golden_serve.rs`.
const GOLDEN_REPLY_DIGEST: u64 = 0xD947_85B3_1083_1163;
const GOLDEN_PAGES_READ: u64 = 3_061;
const GOLDEN_CACHE: (u64, u64) = (1, 180);

#[test]
fn golden_traces_hold_with_span_collector_armed() {
    let g = canonical::graph();
    let mut db = Database::build(&g, true).unwrap();
    let query = canonical::query();
    let mut table = Vec::new();
    for algo in Algorithm::WITH_INDEX {
        let sink = Arc::new(DigestSink::new());
        let (rec, collector) = SpanRecorder::collecting();
        let cfg = SystemConfig::with_buffer(20)
            .traced(Tracer::new(sink.clone()))
            .observed(rec);
        db.run(&query, algo, &cfg).unwrap();
        let tree = collector.tree();
        assert!(
            tree.find(&["run"]).is_some_and(|n| n.count > 0),
            "{algo}: armed collector recorded no run span"
        );
        let d = sink.digest();
        table.push((algo.name(), d.hash, d.count));
    }
    let rendered = table
        .iter()
        .map(|(name, hash, count)| format!("    ({name:?}, {hash:#018X}, {count}),"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(
        table, GOLDEN_TRACES,
        "a timed run drifted off the golden traces — timing leaked into \
         the deterministic track (or the pins moved in golden_trace.rs; \
         then replace this table with):\n{rendered}",
    );
}

#[test]
fn section_reports_are_byte_identical_with_and_without_timing() {
    // Two sections covering distinct engine paths: a full-closure
    // algorithm comparison and the dynamic-maintenance section. (The
    // full 14-section sweep runs timing-armed against the golden
    // digests in `golden_report.rs`.)
    for name in ["fig6", "updates"] {
        let f = section(name).unwrap_or_else(|| panic!("unknown section {name}"));
        let plain = f(&ExpOpts::quick()).unwrap_or_else(|e| panic!("{name} plain run: {e}"));

        let tmp = TempDir::new("tc-obs-timing").expect("temp dir");
        let timed = f(&ExpOpts::quick().timing_dir(tmp.path()))
            .unwrap_or_else(|e| panic!("{name} timed run: {e}"));
        assert_eq!(
            plain, timed,
            "{name}: --timing changed the report bytes — timing must stay \
             strictly outside the deterministic gate"
        );

        // The sidecar actually materialized: one well-formed span tree
        // per cell. Engine cells carry a root-level run span; pure
        // statistics cells legitimately record nothing.
        let (mut span_files, mut with_run) = (0, 0);
        let entries = std::fs::read_dir(tmp.path()).expect("read timing dir");
        for entry in entries {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                span_files += 1;
                let text = std::fs::read_to_string(&path).expect("read span file");
                let tree = SpanTree::from_json(&text)
                    .unwrap_or_else(|e| panic!("{}: bad span tree: {e}", path.display()));
                // Query cells root at `run`; update cells at
                // `update_apply` (around DynamicClosure::apply).
                if tree.find(&["run"]).is_some() || tree.find(&["update_apply"]).is_some() {
                    with_run += 1;
                }
            }
        }
        assert!(span_files > 0, "{name}: --timing wrote no span trees");
        assert!(
            with_run > 0,
            "{name}: no span tree recorded an engine run span"
        );
    }
}

#[test]
fn canonical_serve_holds_golden_pins_with_obs_enabled() {
    let g = canonical::graph();
    let snap = ClosedSnapshot::build(&g, &SystemConfig::with_buffer(20)).expect("freeze G5");
    let service = Service::new(Arc::new(snap));
    for workers in [1usize, 4] {
        let obs = ServeObs::enabled();
        let report = service
            .serve(
                &QueryStream::canonical_g5(),
                &ServeConfig::default()
                    .workers(workers)
                    .observed(obs.clone()),
            )
            .expect("canonical serve");
        // The deterministic track: bit-for-bit the golden_serve.rs pins.
        assert_eq!(report.replies(), 256, "workers {workers}: dropped replies");
        assert_eq!(
            report.digest(),
            GOLDEN_REPLY_DIGEST,
            "workers {workers}: reply digest drifted to {:#018x} with obs on",
            report.digest()
        );
        assert_eq!(
            report.pages_read(),
            GOLDEN_PAGES_READ,
            "workers {workers}: pages read drifted with obs on"
        );
        assert_eq!(
            (report.cache_hits(), report.cache_lookups()),
            GOLDEN_CACHE,
            "workers {workers}: cache counters drifted with obs on"
        );
        // The wall-clock track: one service-time sample per reply, and
        // queue waits recorded alongside.
        let service_hist = obs.service_histogram().expect("enabled obs");
        let queue_hist = obs.queue_wait_histogram().expect("enabled obs");
        assert_eq!(
            service_hist.count(),
            256,
            "workers {workers}: service histogram missed replies"
        );
        assert_eq!(
            queue_hist.count(),
            256,
            "workers {workers}: queue-wait histogram missed replies"
        );
        assert_eq!(obs.replies(), Some(256));
    }
}

/// `key=value` of `line`, split at `/` when the value is a pair.
fn field<'a>(line: &'a str, key: &str) -> Vec<&'a str> {
    let value = line
        .split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"));
    value.split('/').collect()
}

#[test]
fn tcq_serve_metrics_export_the_totals_it_prints() {
    let dir = TempDir::new("obs-serve-metrics").unwrap();
    let (edges, metrics) = (dir.path().join("g.txt"), dir.path().join("m.prom"));
    let g = DagGenerator::new(400, 3.0, 60).seed(5).generate();
    let text: String = g.arcs().map(|(u, v)| format!("{u} {v}\n")).collect();
    std::fs::write(&edges, text).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tcq"))
        .arg("serve")
        .arg(&edges)
        .args(["--workers", "2", "--clients", "3", "--per-client", "50"])
        .args(["--buffer", "8", "--cache", "4", "--metrics"])
        .arg(&metrics)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let prom = std::fs::read_to_string(&metrics).unwrap();
    let exported = |name: &str| -> &str {
        prom.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{name} missing from\n{prom}"))
    };
    let (cache, buffer) = (field(&stdout, "cache"), field(&stdout, "buffer"));
    let printed = [
        ("tc_serve_pages_read_total", field(&stdout, "pages_read")[0]),
        ("tc_serve_cache_hits_total", cache[0]),
        ("tc_serve_cache_lookups_total", cache[1]),
        ("tc_serve_buffer_hits_total", buffer[0]),
        ("tc_serve_buffer_misses_total", buffer[1]),
    ];
    for (name, value) in printed {
        assert_eq!(exported(name), value, "{name}: stdout {stdout}");
    }
    // A cold pool over a 400-node closure reads pages and misses.
    assert_ne!(exported("tc_serve_pages_read_total"), "0", "{stdout}");
    assert_ne!(exported("tc_serve_buffer_misses_total"), "0", "{stdout}");
}
