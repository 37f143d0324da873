//! Serve-side wall-clock metrics: queue-wait and service-time
//! histograms plus per-worker busy/idle accounting, backed by the
//! `tc-obs` registry — and, beside them, the deterministic track's
//! totals (pages read, cache and buffer hits), so an operator reads one
//! file.
//!
//! [`ServeObs`] mirrors the `Tracer`/`SpanRecorder` shape: a cheap
//! cloneable handle that is one `None` branch when disabled (the
//! default), so the recording calls on the per-request path cost
//! nothing unless a caller opts in. Everything recorded here is
//! wall-clock and therefore *never* part of the deterministic track —
//! the reply digests, page counts and cache counters of a serve are
//! byte-identical whether a `ServeObs` is armed or not (pinned by the
//! determinism-under-timing suite). The exported totals are one table
//! over the ledger a [`ClientReport`] holds, added once per client.

use crate::request::Request;
use crate::service::ClientReport;
use std::sync::Arc;
use tc_obs::{Counter, Histogram, LatencyHistogram, MetricsRegistry};

/// Metric names exposed by an armed [`ServeObs`] (Prometheus bases).
const REPLIES_TOTAL: &str = "tc_serve_replies_total";
const QUEUE_WAIT: &str = "tc_serve_queue_wait_ns";
const SERVICE: &str = "tc_serve_service_ns";

/// A counter name and the [`ClientReport`] counter it sums.
type ClientTotal = (&'static str, fn(&ClientReport) -> u64);

/// The pages a client read handling requests of kind `K`.
fn pages_of<const K: usize>(c: &ClientReport) -> u64 {
    c.stats.pages_by_kind[K]
}

/// Deterministic-track totals an armed [`ServeObs`] exports, one line
/// each: the pages read, whole and by [`Request::KINDS`] in order, then
/// the cache and buffer counters.
const CLIENT_TOTALS: [ClientTotal; 8] = [
    ("tc_serve_pages_read_total", |c| {
        c.stats.pages_by_kind.iter().sum()
    }),
    (r#"tc_serve_pages_read_total{kind="reach"}"#, pages_of::<0>),
    (r#"tc_serve_pages_read_total{kind="ptc"}"#, pages_of::<1>),
    (r#"tc_serve_pages_read_total{kind="path"}"#, pages_of::<2>),
    ("tc_serve_cache_hits_total", |c| c.stats.cache_hits),
    ("tc_serve_cache_lookups_total", |c| c.stats.cache_lookups),
    ("tc_serve_buffer_hits_total", |c| c.buffer.hits),
    ("tc_serve_buffer_misses_total", |c| c.buffer.misses),
];

struct Inner {
    registry: MetricsRegistry,
    replies: Counter,
    queue_wait: Histogram,
    service: Histogram,
    /// Per-kind service histograms, indexed by [`Request::kind`].
    by_kind: [Histogram; 3],
    /// One counter per row of [`CLIENT_TOTALS`], in order.
    client_totals: [Counter; CLIENT_TOTALS.len()],
}

/// Optional serve-side metrics recorder threaded through
/// [`crate::ServeConfig`]. `Default` is disabled.
#[derive(Clone, Default)]
pub struct ServeObs(Option<Arc<Inner>>);

impl ServeObs {
    /// A recorder that drops everything (the default).
    pub fn disabled() -> ServeObs {
        ServeObs(None)
    }

    /// An armed recorder with a fresh registry and pre-created
    /// queue-wait / service / per-kind histogram handles.
    pub fn enabled() -> ServeObs {
        let registry = MetricsRegistry::new();
        let replies = registry.counter(REPLIES_TOTAL);
        let queue_wait = registry.histogram(QUEUE_WAIT);
        let service = registry.histogram(SERVICE);
        let by_kind =
            Request::KINDS.map(|kind| registry.histogram(&format!("{SERVICE}{{kind=\"{kind}\"}}")));
        let client_totals = CLIENT_TOTALS.map(|(name, _)| registry.counter(name));
        ServeObs(Some(Arc::new(Inner {
            registry,
            replies,
            queue_wait,
            service,
            by_kind,
            client_totals,
        })))
    }

    /// Whether metrics are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one answered request: time spent queued before a worker
    /// picked it up, and the session's service time.
    #[inline]
    pub fn record_reply(&self, req: &Request, queue_wait_ns: u64, service_ns: u64) {
        if let Some(inner) = &self.0 {
            inner.replies.inc();
            inner.queue_wait.record(queue_wait_ns);
            inner.service.record(service_ns);
            inner.by_kind[req.kind()].record(service_ns);
        }
    }

    /// Adds one finished client's deterministic counters to the exported
    /// totals. Called once per client, never per request.
    pub fn record_client(&self, report: &ClientReport) {
        if let Some(inner) = &self.0 {
            for (counter, (_, of)) in inner.client_totals.iter().zip(CLIENT_TOTALS) {
                counter.add(of(report));
            }
        }
    }

    /// Records one worker's busy/idle split at the end of a serve: busy
    /// is the time it spent on the clients it ran, idle the rest of the
    /// serve's wall time.
    pub fn record_worker(&self, worker: usize, busy_ns: u64, idle_ns: u64) {
        if let Some(inner) = &self.0 {
            inner
                .registry
                .counter(&format!("tc_serve_worker_busy_ns{{worker=\"{worker}\"}}"))
                .add(busy_ns);
            inner
                .registry
                .counter(&format!("tc_serve_worker_idle_ns{{worker=\"{worker}\"}}"))
                .add(idle_ns);
        }
    }

    /// Snapshot of the aggregate service-time histogram, if armed.
    pub fn service_histogram(&self) -> Option<LatencyHistogram> {
        self.0.as_ref().map(|i| i.service.snapshot())
    }

    /// Snapshot of the queue-wait histogram, if armed.
    pub fn queue_wait_histogram(&self) -> Option<LatencyHistogram> {
        self.0.as_ref().map(|i| i.queue_wait.snapshot())
    }

    /// Total recorded replies, if armed.
    pub fn replies(&self) -> Option<u64> {
        self.0.as_ref().map(|i| i.replies.get())
    }

    /// Prometheus text exposition of everything recorded, if armed.
    pub fn render_prometheus(&self) -> Option<String> {
        self.0.as_ref().map(|i| i.registry.render_prometheus())
    }
}

impl std::fmt::Debug for ServeObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Some(_) => f.write_str("ServeObs(enabled)"),
            None => f.write_str("ServeObs(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let obs = ServeObs::disabled();
        obs.record_reply(&Request::Ptc { u: 0 }, 10, 20);
        obs.record_worker(0, 5, 5);
        assert!(!obs.is_enabled());
        assert!(obs.render_prometheus().is_none());
        assert!(obs.service_histogram().is_none());
        assert!(obs.replies().is_none());
    }

    #[test]
    fn armed_recorder_accumulates_per_kind() {
        let obs = ServeObs::enabled();
        obs.record_reply(&Request::Reach { u: 0, v: 1 }, 100, 1_000);
        obs.record_reply(&Request::Ptc { u: 0 }, 200, 2_000);
        obs.record_reply(&Request::Ptc { u: 1 }, 300, 3_000);
        obs.record_worker(0, 6_000, 1_000);
        assert_eq!(obs.replies(), Some(3));
        assert_eq!(obs.service_histogram().map(|h| h.count()), Some(3));
        assert_eq!(obs.queue_wait_histogram().map(|h| h.count()), Some(3));
        let prom = obs.render_prometheus().expect("armed");
        assert!(prom.contains("tc_serve_replies_total 3"), "{prom}");
        assert!(
            prom.contains("tc_serve_service_ns_count{kind=\"ptc\"} 2"),
            "{prom}"
        );
        assert!(
            prom.contains("tc_serve_worker_busy_ns{worker=\"0\"} 6000"),
            "{prom}"
        );
        // A client's pages read are exported split by kind, and whole
        // as the sum of the split.
        obs.record_client(&ClientReport {
            records: Vec::new(),
            buffer: Default::default(),
            stats: crate::SessionStats {
                pages_by_kind: [2, 3, 5],
                ..Default::default()
            },
        });
        let prom = obs.render_prometheus().expect("armed");
        for line in [
            "tc_serve_pages_read_total 10",
            "tc_serve_pages_read_total{kind=\"reach\"} 2",
            "tc_serve_pages_read_total{kind=\"ptc\"} 3",
            "tc_serve_pages_read_total{kind=\"path\"} 5",
        ] {
            assert!(
                prom.lines().any(|l| l == line),
                "{line} missing from\n{prom}"
            );
        }
        // Clones share the same inner state.
        let clone = obs.clone();
        clone.record_reply(&Request::Path { u: 0, v: 1 }, 1, 1);
        assert_eq!(obs.replies(), Some(4));
    }
}
