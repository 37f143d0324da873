//! The wall-clock side of the observability story: span-profile a run,
//! render the phase tree, and collect serve latency histograms — all
//! strictly outside the deterministic gate (nothing printed here ever
//! feeds a digest or a golden file).
//!
//! ```text
//! cargo run --release --example obs_quickstart
//! ```

use std::sync::Arc;
use tc_study::core::prelude::*;
use tc_study::graph::DagGenerator;
use tc_study::obs::SpanRecorder;
use tc_study::serve::{
    LoopMode, MixSpec, QueryStream, ServeConfig, ServeObs, Service, CANONICAL_SERVE_SEED,
};

fn main() {
    // A small instance of the paper's G5 parameterization. The *work*
    // is seeded and bit-deterministic; the *times* below are whatever
    // this machine does today — that split is the whole design.
    let graph = DagGenerator::new(500, 4.0, 100).seed(7).generate();
    let mut db = Database::build(&graph, false).expect("load database");

    // 1. Span-profile a run: arm a collector through SystemConfig,
    //    exactly like attaching a Tracer. Disabled recorders (the
    //    default) are a single branch and never allocate, so the
    //    engines carry the instrumentation unconditionally.
    let (recorder, collector) = SpanRecorder::collecting();
    let cfg = SystemConfig::with_buffer(20).observed(recorder);
    let res = db
        .run(&Query::partial(vec![3, 141]), Algorithm::Btc, &cfg)
        .expect("run BTC");
    let tree = collector.tree();
    println!(
        "BTC on G(500, 4, 100): {} page I/Os",
        res.metrics.total_io()
    );
    println!("\n{}", tree.render());

    // The tree is data, not just a rendering: walk it for phase shares.
    if let (Some(run), Some(compute)) = (tree.find(&["run"]), tree.find(&["run", "compute"])) {
        println!(
            "compute is {:.1}% of the run's wall time",
            compute.total_ns as f64 / run.total_ns.max(1) as f64 * 100.0
        );
    }

    // 2. Serve latency: freeze the closure, replay a seeded query mix,
    //    and read per-reply service/queue-wait histograms. The reply
    //    digest is bit-deterministic at any worker count; the latency
    //    figures ride beside it and never gate anything.
    let snap = ClosedSnapshot::build(&graph, &SystemConfig::with_buffer(32)).expect("freeze");
    let service = Service::new(Arc::new(snap));
    let stream = QueryStream::generate(
        graph.n(),
        2,
        32,
        MixSpec::MIXED,
        0.8,
        LoopMode::Closed,
        CANONICAL_SERVE_SEED,
    );
    let obs = ServeObs::enabled();
    let report = service
        .serve(
            &stream,
            &ServeConfig::default().workers(2).observed(obs.clone()),
        )
        .expect("serve");
    let service_hist = obs.service_histogram().expect("obs is enabled");
    println!(
        "\nserved {} replies (digest {:016x}, deterministic): \
         service p50 {} ns, p95 {} ns, p99 {} ns (wall-clock, non-gating)",
        report.replies(),
        report.digest(),
        service_hist.percentile(50.0),
        service_hist.percentile(95.0),
        service_hist.percentile(99.0),
    );

    // 3. The same numbers as Prometheus text: `tcq serve --metrics
    //    PATH` writes this file periodically during a serve.
    if let Some(prom) = obs.render_prometheus() {
        let head: Vec<&str> = prom.lines().take(6).collect();
        println!("\nPrometheus text (first lines):\n{}", head.join("\n"));
    }
}
