//! Determinism-under-timing suite: arming the wall-clock layer leaves
//! every gated byte untouched.
//!
//! `trace_overhead.rs` shows spans are free when disabled; this suite
//! shows they are *inert* when enabled, by running each surface twice,
//! armed and unarmed, and holding the two equal:
//!
//! - each algorithm's canonical G5 event trace (the stream
//!   `golden_trace.rs` pins) digests the same with a span collector
//!   armed on the run;
//! - the canonical serve (the one `golden_serve.rs` pins) reproduces an
//!   unarmed serve's reply digest, page and cache counters with
//!   `ServeObs` enabled, at 1 and 4 workers, while the latency
//!   histograms demonstrably filled; and `tcq serve --metrics` exports
//!   the same deterministic totals it prints on stdout.
//!
//! No pinned value is written here: the pins live in their own files,
//! and an observer that moved one would fail here as an armed/unarmed
//! difference. That the experiment reports do not see `--timing` is
//! `golden_report.rs`'s armed test, which holds every section rendered
//! with `--timing` to its unarmed bytes.

use std::sync::Arc;
use tc_bench::corpus::canonical;
use tc_study::core::prelude::*;
use tc_study::graph::DagGenerator;
use tc_study::obs::SpanRecorder;
use tc_study::serve::{QueryStream, ServeConfig, ServeObs, ServeReport, Service};
use tc_study::storage::TempDir;
use tc_study::trace::{DigestSink, TraceDigest, Tracer};

#[test]
fn golden_traces_hold_with_span_collector_armed() {
    // Two databases with the same history: a run recycles the pages of
    // the runs before it, so a trace is a function of that history too.
    let g = canonical::graph();
    let [mut plain_db, mut armed_db] = [(); 2].map(|_| Database::build(&g, true).unwrap());
    let query = canonical::query();
    for algo in Algorithm::WITH_INDEX {
        let digest = |db: &mut Database, rec: SpanRecorder| -> TraceDigest {
            let sink = Arc::new(DigestSink::new());
            let cfg = SystemConfig::with_buffer(20)
                .traced(Tracer::new(sink.clone()))
                .observed(rec);
            db.run(&query, algo, &cfg).unwrap();
            sink.digest()
        };
        let unarmed = digest(&mut plain_db, SpanRecorder::disabled());
        let (rec, collector) = SpanRecorder::collecting();
        let armed = digest(&mut armed_db, rec);
        assert!(
            collector.tree().find(&["run"]).is_some_and(|n| n.count > 0),
            "{algo}: armed collector recorded no run span"
        );
        assert_eq!(
            armed, unarmed,
            "{algo}: arming a span collector changed the event trace — \
             timing leaked into the deterministic track"
        );
    }
}

/// The deterministic track of a serve: what `golden_serve.rs` pins.
fn track(report: &ServeReport) -> (usize, u64, u64, (u64, u64)) {
    let cache = (report.cache_hits(), report.cache_lookups());
    (
        report.replies(),
        report.digest(),
        report.pages_read(),
        cache,
    )
}

#[test]
fn canonical_serve_holds_golden_pins_with_obs_enabled() {
    let g = canonical::graph();
    let snap = ClosedSnapshot::build(&g, &SystemConfig::with_buffer(20)).expect("freeze G5");
    let service = Service::new(Arc::new(snap));
    let stream = QueryStream::canonical_g5();
    let serve = |cfg: &ServeConfig| service.serve(&stream, cfg).expect("canonical serve");
    let unarmed = track(&serve(&ServeConfig::default()));
    for workers in [1usize, 4] {
        let obs = ServeObs::enabled();
        let report = serve(
            &ServeConfig::default()
                .workers(workers)
                .observed(obs.clone()),
        );
        assert_eq!(
            track(&report),
            unarmed,
            "workers {workers}: (replies, digest, pages read, cache) drifted with obs on"
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
