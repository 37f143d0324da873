//! A small metrics registry: named counters and latency histograms
//! with deterministic Prometheus-text exposition.
//!
//! Handles ([`Counter`], [`Histogram`]) are cheap clones sharing state
//! with the registry, so hot paths record through a pre-fetched handle
//! without touching the name map. Names may carry a Prometheus label
//! suffix (`tc_serve_service_ns{kind="ptc"}`); the renderer splices
//! quantile labels into it. Rendering iterates a `BTreeMap`, so output
//! ordering is a pure function of the recorded names — stable across
//! runs and worker counts (the *values* are wall-clock and are not).

use crate::hist::LatencyHistogram;
use crate::lock_unpoisoned;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A latency-histogram handle.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<Mutex<LatencyHistogram>>);

impl Histogram {
    /// Records one nanosecond value.
    pub fn record(&self, ns: u64) {
        lock_unpoisoned(&self.0).record(ns);
    }

    /// Snapshots the current contents.
    pub fn snapshot(&self) -> LatencyHistogram {
        lock_unpoisoned(&self.0).clone()
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Histogram(Histogram),
}

/// A name → metric map with deterministic text exposition.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Gets or creates the counter named `name`. If the name is
    /// already registered as a histogram, returns a detached handle
    /// (records go nowhere) rather than panicking — kind confusion is
    /// a programming error the observability layer must not escalate.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock_unpoisoned(&self.inner);
        let metric = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()));
        match metric {
            Metric::Counter(c) => c.clone(),
            Metric::Histogram(_) => Counter::default(),
        }
    }

    /// Gets or creates the histogram named `name` (detached handle on
    /// kind confusion, as with [`MetricsRegistry::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock_unpoisoned(&self.inner);
        let metric = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()));
        match metric {
            Metric::Histogram(h) => h.clone(),
            Metric::Counter(_) => Histogram::default(),
        }
    }

    /// Renders every metric in Prometheus text exposition format.
    /// Counters render as `counter`, histograms as `summary` with
    /// `quantile` labels for p50/p95/p99 plus `_sum`/`_count`.
    pub fn render_prometheus(&self) -> String {
        let map = lock_unpoisoned(&self.inner);
        let mut out = String::new();
        let mut typed: Option<String> = None;
        for (name, metric) in map.iter() {
            let (base, labels) = split_labels(name);
            match metric {
                Metric::Counter(c) => {
                    if typed.as_deref() != Some(base) {
                        out.push_str(&format!("# TYPE {base} counter\n"));
                        typed = Some(base.to_string());
                    }
                    out.push_str(&format!("{name} {}\n", c.get()));
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    if typed.as_deref() != Some(base) {
                        out.push_str(&format!("# TYPE {base} summary\n"));
                        typed = Some(base.to_string());
                    }
                    for q in ["0.5", "0.95", "0.99"] {
                        let quantile = format!("quantile=\"{q}\"");
                        let series = match labels {
                            Some(l) => format!("{base}{{{l},{quantile}}}"),
                            None => format!("{base}{{{quantile}}}"),
                        };
                        let pct = match q {
                            "0.5" => 50.0,
                            "0.95" => 95.0,
                            _ => 99.0,
                        };
                        out.push_str(&format!("{series} {}\n", snap.percentile(pct)));
                    }
                    let suffix = |s: &str| match labels {
                        Some(l) => format!("{base}{s}{{{l}}}"),
                        None => format!("{base}{s}"),
                    };
                    out.push_str(&format!("{} {}\n", suffix("_sum"), snap.sum()));
                    out.push_str(&format!("{} {}\n", suffix("_count"), snap.count()));
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = lock_unpoisoned(&self.inner);
        write!(f, "MetricsRegistry({} metrics)", map.len())
    }
}

/// Splits `name{labels}` into `(name, Some(labels))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_with_the_registry() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("tc_replies_total");
        let b = reg.counter("tc_replies_total");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("tc_replies_total").get(), 4);

        let h = reg.histogram("tc_latency_ns");
        h.record(1_000);
        h.record(2_000);
        assert_eq!(reg.histogram("tc_latency_ns").snapshot().count(), 2);
    }

    #[test]
    fn kind_confusion_degrades_to_a_detached_handle() {
        let reg = MetricsRegistry::new();
        reg.counter("x").add(7);
        let h = reg.histogram("x");
        h.record(1); // goes nowhere, no panic
        assert_eq!(reg.counter("x").get(), 7);
        assert!(reg.render_prometheus().contains("x 7\n"));
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_labeled() {
        let reg = MetricsRegistry::new();
        reg.counter("tc_b_total").add(2);
        reg.counter("tc_a_total").add(1);
        let h = reg.histogram("tc_serve_service_ns{kind=\"ptc\"}");
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        reg.histogram("tc_serve_service_ns{kind=\"reach\"}")
            .record(50);
        let text = reg.render_prometheus();
        let a = text.find("tc_a_total 1").expect("counter a");
        let b = text.find("tc_b_total 2").expect("counter b");
        assert!(a < b, "BTreeMap order:\n{text}");
        assert!(text.contains("# TYPE tc_serve_service_ns summary"));
        assert_eq!(
            text.matches("# TYPE tc_serve_service_ns summary").count(),
            1,
            "one TYPE line per base:\n{text}"
        );
        assert!(
            text.contains("tc_serve_service_ns{kind=\"ptc\",quantile=\"0.95\"}"),
            "{text}"
        );
        assert!(
            text.contains("tc_serve_service_ns_count{kind=\"ptc\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("tc_serve_service_ns_sum{kind=\"ptc\"} 600"),
            "{text}"
        );
        assert_eq!(reg.render_prometheus(), text, "rendering must be stable");
    }
}
