//! Trace sinks and the [`Tracer`] handle.
//!
//! A [`Tracer`] is the only thing the instrumented layers see: a
//! cloneable handle that is either *disabled* (the default — emitting is
//! an inlined `None` branch, no allocation, no locking) or backed by a
//! shared [`TraceSink`]. Sinks take `&self` and must be `Send + Sync`:
//! one tracer may be cloned into the disk, the buffer pool and the
//! metrics of a single run, and whole configs cross the experiment
//! scheduler's thread boundary.
//!
//! Sink interior mutability uses `Mutex` with poison recovery
//! (`into_inner` on a poisoned lock): a panicking test thread must not
//! cascade into unrelated cells, and the audited run paths forbid
//! `unwrap`.

use crate::digest::{Fnv, TraceDigest};
use crate::event::Event;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};

/// Receiver of trace events. Implementations must be cheap: `emit` is
/// called once per counted unit of work, millions of times on a large
/// workload.
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn emit(&self, ev: Event);
}

/// A cloneable tracing handle: disabled by default, or a shared
/// reference to a [`TraceSink`].
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<dyn TraceSink>>);

impl Tracer {
    /// The no-op tracer (the production default).
    pub fn disabled() -> Tracer {
        Tracer(None)
    }

    /// A tracer backed by `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer(Some(sink))
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emits `ev` if a sink is attached. The disabled path is a single
    /// branch over a `Copy` value — safe to leave in release hot loops.
    #[inline]
    pub fn emit(&self, ev: Event) {
        if let Some(sink) = &self.0 {
            sink.emit(ev);
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_enabled() {
            "Tracer(enabled)"
        } else {
            "Tracer(disabled)"
        })
    }
}

/// Recovers the data from a possibly-poisoned mutex: the sink's
/// invariants are simple counters/buffers that stay consistent even if
/// a panicking thread abandoned the lock mid-update.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------
// VecSink
// ---------------------------------------------------------------------

/// Collects every event in memory. The workhorse of replay tests on
/// small workloads; prefer [`DigestSink`] at G5 scale.
pub struct VecSink {
    events: Mutex<Vec<Event>>,
}

impl VecSink {
    /// Collects every event.
    pub fn unbounded() -> VecSink {
        VecSink {
            events: Mutex::new(Vec::new()),
        }
    }

    /// The collected events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        lock_unpoisoned(&self.events).clone()
    }

    /// Number of events collected.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.events).len()
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for VecSink {
    fn emit(&self, ev: Event) {
        lock_unpoisoned(&self.events).push(ev);
    }
}

// ---------------------------------------------------------------------
// DigestSink
// ---------------------------------------------------------------------

/// Streams events into an FNV-1a digest without storing them: constant
/// memory, so full G5 traces (millions of events) can be pinned golden.
pub struct DigestSink {
    inner: Mutex<(Fnv, u64)>,
}

impl Default for DigestSink {
    fn default() -> Self {
        DigestSink::new()
    }
}

impl DigestSink {
    /// A fresh digest sink.
    pub fn new() -> DigestSink {
        DigestSink {
            inner: Mutex::new((Fnv::new(), 0)),
        }
    }

    /// The digest of everything emitted so far.
    pub fn digest(&self) -> TraceDigest {
        let inner = lock_unpoisoned(&self.inner);
        TraceDigest {
            hash: inner.0.finish(),
            count: inner.1,
        }
    }
}

impl TraceSink for DigestSink {
    fn emit(&self, ev: Event) {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.0.event(&ev);
        inner.1 += 1;
    }
}

// ---------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------

struct JsonlInner<W> {
    writer: W,
    /// First write error, deferred: `emit` is infallible by contract,
    /// so failures surface at [`JsonlSink::finish`].
    error: Option<io::Error>,
}

/// Writes one JSON object per event to a writer (JSONL). I/O errors are
/// deferred to [`JsonlSink::finish`] — after the first error further
/// events are discarded.
pub struct JsonlSink<W: Write + Send> {
    inner: Mutex<JsonlInner<W>>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps `writer` (use a `BufWriter` for files).
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            inner: Mutex::new(JsonlInner {
                writer,
                error: None,
            }),
        }
    }

    /// Flushes and reports the first deferred write error, if any.
    pub fn finish(&self) -> io::Result<()> {
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(e) = inner.error.take() {
            return Err(e);
        }
        inner.writer.flush()
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn emit(&self, ev: Event) {
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.error.is_some() {
            return;
        }
        if let Err(e) = ev.write_jsonl(&mut inner.writer) {
            inner.error = Some(e);
        }
    }
}

// ---------------------------------------------------------------------
// TeeSink
// ---------------------------------------------------------------------

/// Fans each event out to several sinks in order, so one run can feed a
/// digest pin and a profile fold (or a JSONL export and a profile) from
/// a single stream without replaying it.
pub struct TeeSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TeeSink {
    /// A tee over `sinks` (events are delivered in the given order).
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink {
    fn emit(&self, ev: Event) {
        for sink in &self.sinks {
            sink.emit(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest_events;

    fn ev(page: u32) -> Event {
        Event::FlushWrite { page }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(Event::RunEnd); // must be a no-op
        assert_eq!(format!("{t:?}"), "Tracer(disabled)");
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let sink = Arc::new(VecSink::unbounded());
        let t = Tracer::new(sink.clone());
        assert!(t.is_enabled());
        for p in 0..5 {
            t.emit(ev(p));
        }
        assert_eq!(sink.events(), (0..5).map(ev).collect::<Vec<_>>());
        assert_eq!(sink.len(), 5);
    }

    #[test]
    fn digest_sink_matches_offline_digest() {
        let events: Vec<Event> = (0..100)
            .map(|i| Event::BufHit {
                page: i,
                read: i % 2 == 0,
            })
            .collect();
        let sink = DigestSink::new();
        for e in &events {
            sink.emit(*e);
        }
        assert_eq!(sink.digest(), digest_events(&events));
    }

    #[test]
    fn jsonl_sink_writes_lines_and_finishes_clean() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit(Event::Union);
        sink.emit(ev(2));
        sink.finish().unwrap();
        let inner = lock_unpoisoned(&sink.inner);
        let text = String::from_utf8(inner.writer.clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"ev\":\"union\""));
    }

    #[test]
    fn tee_sink_fans_out_to_every_branch() {
        let a = Arc::new(VecSink::unbounded());
        let b = Arc::new(DigestSink::new());
        let tee = TeeSink::new(vec![a.clone(), b.clone()]);
        for p in 0..4 {
            tee.emit(ev(p));
        }
        assert_eq!(a.events(), (0..4).map(ev).collect::<Vec<_>>());
        assert_eq!(b.digest(), digest_events(&a.events()));
    }

    #[test]
    fn tracer_clones_share_the_sink() {
        let sink = Arc::new(VecSink::unbounded());
        let a = Tracer::new(sink.clone());
        let b = a.clone();
        a.emit(ev(1));
        b.emit(ev(2));
        assert_eq!(sink.len(), 2);
    }
}
