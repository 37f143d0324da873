//! The in-process service loop: per-client request sequences, a worker
//! pool, and an atomically swappable snapshot.
//!
//! [`Service`] owns the *current*
//! [`ClosedSnapshot`](tc_core::ClosedSnapshot) behind a mutexed `Arc`.
//! [`Service::serve`] plays a [`QueryStream`] against it: the whole
//! stream counts as posted at one instant before the workers
//! start, and `workers` workers of `tc-det`'s one pool
//! ([`tc_det::run_indexed`]) drain it. Each job is a *whole* client: the
//! worker that claims it opens that client's [`Session`] and answers its
//! requests in order — so each session's counters and replies are a
//! pure function of its own request sequence, never of thread
//! interleaving. That is what makes the deterministic track (pages
//! read, cache hits, per-reply digests) byte-identical at any worker
//! count, while the wall-time track (latencies, queries/sec) remains
//! free to vary.
//!
//! [`Service::publish`] swaps in a new snapshot while a serve is in
//! flight: workers load the current epoch (one atomic, no lock) before
//! every request and rebind their session when it moved, so in-flight
//! queries finish on the epoch they started with and each reply
//! reflects exactly one consistent closure. Old snapshots die when the
//! last session drops its `Arc`.

use crate::load::QueryStream;
use crate::obs::ServeObs;
use crate::request::{Reply, Request};
use crate::session::{Session, SessionConfig, SessionStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tc_buffer::BufferStats;
use tc_storage::StorageError;
use tc_trace::Fnv;

/// Shape of one service run.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the client queues. Changing this must
    /// not change anything on the deterministic track.
    pub workers: usize,
    /// Configuration applied to every client session.
    pub session: SessionConfig,
    /// Keep each full [`Reply`] in its [`ReplyRecord`] (differential
    /// tests want the payloads; benchmarks only need the digests).
    pub collect_replies: bool,
    /// Wall-clock serve metrics (queue-wait / service histograms,
    /// per-worker busy/idle). Disabled by default; arming it cannot
    /// change anything on the deterministic track.
    pub obs: ServeObs,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            session: SessionConfig::default(),
            collect_replies: false,
            obs: ServeObs::disabled(),
        }
    }
}

impl ServeConfig {
    /// Builder-style: worker thread count.
    pub fn workers(mut self, w: usize) -> Self {
        self.workers = w;
        self
    }

    /// Builder-style: per-session configuration.
    pub fn session(mut self, s: SessionConfig) -> Self {
        self.session = s;
        self
    }

    /// Builder-style: retain full reply payloads.
    pub fn collect_replies(mut self, yes: bool) -> Self {
        self.collect_replies = yes;
        self
    }

    /// Builder-style: record wall-clock serve metrics through `obs`
    /// (non-gating; timing never reaches a digest).
    pub fn observed(mut self, obs: ServeObs) -> Self {
        self.obs = obs;
        self
    }
}

/// One answered request, in its client's issue order.
#[derive(Clone, Debug)]
pub struct ReplyRecord {
    /// The client the request belonged to.
    pub client: usize,
    /// Position in the client's queue.
    pub seq: usize,
    /// Epoch of the snapshot that answered it.
    pub epoch: u64,
    /// [`Reply::digest`] of the reply (always present).
    pub digest: u64,
    /// Wall-clock service time — wall-time track only, never folded
    /// into any gating digest.
    pub latency_ns: u64,
    /// The full payload, when [`ServeConfig::collect_replies`] is set.
    pub reply: Option<Reply>,
}

/// Everything one client's session produced: its replies and its
/// ledger, each counter once and over every snapshot the session read.
/// The pages it read are the sum of `stats.pages_by_kind`.
#[derive(Clone, Debug)]
pub struct ClientReport {
    /// Answered requests, in issue order.
    pub records: Vec<ReplyRecord>,
    /// The buffer-pool counters of every pool the session bound, added.
    pub buffer: BufferStats,
    /// The session's logical counters and per-kind pages read.
    pub stats: SessionStats,
}

/// A failed request, attributed to client and sequence number. The
/// service stops handing out clients at the first failure; clients
/// already being served finish, and the failure reported is the one of
/// the lowest-numbered failing client among those that ran — not
/// necessarily the first one hit in time. At one worker it is the first.
#[derive(Debug)]
pub struct ServeError {
    /// The client whose request failed.
    pub client: usize,
    /// Position in that client's queue.
    pub seq: usize,
    /// The underlying storage error.
    pub source: StorageError,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "client {} request {} failed: {}",
            self.client, self.seq, self.source
        )
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Lock a mutex, absorbing poisoning: a panicked worker must not wedge
/// the service's read-only state.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The query service: the current snapshot plus the serve loop.
pub struct Service {
    current: Mutex<Arc<tc_core::ClosedSnapshot>>,
    /// Epoch of `current`, so a worker learns that nothing was
    /// published without taking the lock. Stored (`Release`) while the
    /// lock is held; a worker that loads (`Acquire`) an epoch other than
    /// its session's then takes the lock and finds that snapshot or a
    /// later one.
    epoch: AtomicU64,
}

impl Service {
    /// Starts a service over `snapshot` (owned, or already shared
    /// behind an `Arc`).
    pub fn new(snapshot: impl Into<Arc<tc_core::ClosedSnapshot>>) -> Service {
        let snapshot = snapshot.into();
        Service {
            epoch: AtomicU64::new(snapshot.epoch()),
            current: Mutex::new(snapshot),
        }
    }

    /// The snapshot new requests are answered against.
    pub fn snapshot(&self) -> Arc<tc_core::ClosedSnapshot> {
        Arc::clone(&lock(&self.current))
    }

    /// Atomically publishes `snap` as the current snapshot. Requests
    /// already being answered finish on the epoch they started; the
    /// next request of every session sees the new one.
    pub fn publish(&self, snap: impl Into<Arc<tc_core::ClosedSnapshot>>) {
        let snap = snap.into();
        let mut current = lock(&self.current);
        self.epoch.store(snap.epoch(), Ordering::Release);
        *current = snap;
    }

    /// Plays `stream` against the service on [`tc_det::run_indexed`]'s
    /// `cfg.workers` workers, one job per client, and returns the
    /// per-client reports (clients in stream order). Stops handing out
    /// clients at the first failed request; see [`ServeError`] for which
    /// failure is reported.
    pub fn serve(
        &self,
        stream: &QueryStream,
        cfg: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        // Every request counts as posted now, so the wall-time track can
        // split queue-wait from service time.
        let posted = Instant::now();
        let done = tc_det::run_indexed(cfg.workers, stream.clients(), |worker, c| {
            let claimed = Instant::now();
            let report = self.drive_client(c, stream.client(c), posted, cfg)?;
            Ok((worker, claimed.elapsed().as_nanos() as u64, report))
        })?;
        let wall_ns = posted.elapsed().as_nanos() as u64;
        // Busy time per worker index; a worker that claimed no client
        // has no entry.
        let mut busy_ns: Vec<u64> = Vec::new();
        let mut clients = Vec::with_capacity(done.len());
        for (worker, ns, report) in done {
            if busy_ns.len() <= worker {
                busy_ns.resize(worker + 1, 0);
            }
            busy_ns[worker] += ns;
            clients.push(report);
        }
        if cfg.obs.is_enabled() {
            for (worker, busy) in busy_ns.into_iter().enumerate() {
                cfg.obs
                    .record_worker(worker, busy, wall_ns.saturating_sub(busy));
            }
        }
        Ok(ServeReport { clients, wall_ns })
    }

    /// Answers one client's requests, in order, on the calling worker.
    fn drive_client(
        &self,
        client: usize,
        requests: &[Request],
        posted: Instant,
        cfg: &ServeConfig,
    ) -> Result<ClientReport, ServeError> {
        let mut session = Session::new(self.snapshot(), &cfg.session, client as u64);
        let mut records = Vec::with_capacity(requests.len());
        for (seq, req) in requests.iter().enumerate() {
            // Pick up a published snapshot between requests; the one in
            // hand keeps serving the request already being answered.
            if self.epoch.load(Ordering::Acquire) != session.epoch() {
                session.rebind(self.snapshot());
            }
            let t0 = Instant::now();
            let queue_wait_ns = t0.saturating_duration_since(posted).as_nanos() as u64;
            let reply = session.handle(req).map_err(|source| ServeError {
                client,
                seq,
                source,
            })?;
            let service_ns = t0.elapsed().as_nanos() as u64;
            cfg.obs.record_reply(req, queue_wait_ns, service_ns);
            records.push(ReplyRecord {
                client,
                seq,
                epoch: session.epoch(),
                digest: reply.digest(),
                latency_ns: service_ns,
                reply: cfg.collect_replies.then_some(reply),
            });
        }
        let report = ClientReport {
            buffer: session.buffer_total(),
            stats: session.stats(),
            records,
        };
        cfg.obs.record_client(&report);
        Ok(report)
    }
}

/// The outcome of one [`Service::serve`] run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-client reports, in stream order.
    pub clients: Vec<ClientReport>,
    /// Whole-run wall time — wall-time track only.
    pub wall_ns: u64,
}

impl ServeReport {
    /// Aggregate FNV-1a digest of every reply: clients in stream order,
    /// each record folded as (client, seq, epoch, reply digest). The
    /// deterministic track's headline number — identical at any worker
    /// count.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for report in &self.clients {
            for r in &report.records {
                h.u64(r.client as u64);
                h.u64(r.seq as u64);
                h.u64(r.epoch);
                h.u64(r.digest);
            }
        }
        h.finish()
    }

    /// Total answered requests.
    pub fn replies(&self) -> usize {
        self.clients.iter().map(|c| c.records.len()).sum()
    }

    /// Total physical pages read across all sessions: the sum of
    /// [`ServeReport::pages_by_kind`].
    pub fn pages_read(&self) -> u64 {
        self.pages_by_kind().iter().sum()
    }

    /// Physical pages read across all sessions, split by request kind
    /// (indexed by [`Request::kind`]).
    pub fn pages_by_kind(&self) -> [u64; 3] {
        let mut total = [0; 3];
        for c in &self.clients {
            for (t, n) in total.iter_mut().zip(c.stats.pages_by_kind) {
                *t += n;
            }
        }
        total
    }

    /// Total hot-source cache hits across all sessions.
    pub fn cache_hits(&self) -> u64 {
        self.clients.iter().map(|c| c.stats.cache_hits).sum()
    }

    /// Total hot-source cache probes across all sessions.
    pub fn cache_lookups(&self) -> u64 {
        self.clients.iter().map(|c| c.stats.cache_lookups).sum()
    }

    /// Every session's buffer-pool counters, summed.
    pub fn buffer(&self) -> BufferStats {
        self.clients
            .iter()
            .fold(BufferStats::default(), |t, c| t.plus(&c.buffer))
    }

    /// Queries per second over the whole run. Wall-time track only.
    pub fn qps(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.replies() as f64 / (self.wall_ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{LoopMode, MixSpec};
    use tc_core::{ClosedSnapshot, SystemConfig};
    use tc_graph::DagGenerator;

    fn service() -> Service {
        let g = DagGenerator::new(300, 3.0, 60).seed(21).generate();
        Service::new(ClosedSnapshot::build(&g, &SystemConfig::with_buffer(12)).unwrap())
    }

    fn stream() -> QueryStream {
        QueryStream::generate(300, 3, 24, MixSpec::MIXED, 0.8, LoopMode::Closed, 77)
    }

    #[test]
    fn deterministic_track_is_invariant_under_worker_count() {
        let svc = service();
        let s = stream();
        let run = |workers| {
            let report = svc
                .serve(&s, &ServeConfig::default().workers(workers))
                .unwrap();
            (
                report.digest(),
                report.pages_read(),
                report.cache_hits(),
                report.cache_lookups(),
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn pages_by_kind_sum_to_the_buffer_misses_at_any_worker_count() {
        let svc = service();
        let s = stream();
        let run = |workers| {
            let report = svc
                .serve(&s, &ServeConfig::default().workers(workers))
                .unwrap();
            (report.pages_by_kind(), report.buffer().misses)
        };
        let (kinds, misses) = run(1);
        assert_eq!(kinds.iter().sum::<u64>(), misses);
        assert!(
            kinds.iter().all(|&n| n > 0),
            "{kinds:?}: a kind read nothing"
        );
        assert_eq!(run(4), (kinds, misses));
    }

    #[test]
    fn every_request_is_answered_exactly_once_in_order() {
        let svc = service();
        let s = stream();
        let report = svc.serve(&s, &ServeConfig::default()).unwrap();
        assert_eq!(report.replies(), s.len());
        assert_eq!(report.clients.len(), s.clients());
        for (c, client) in report.clients.iter().enumerate() {
            assert_eq!(client.records.len(), s.client(c).len());
            for (seq, r) in client.records.iter().enumerate() {
                assert_eq!((r.client, r.seq), (c, seq));
            }
        }
    }

    #[test]
    fn publish_moves_the_epoch_for_new_sessions() {
        let g = DagGenerator::new(200, 3.0, 40).seed(22).generate();
        let cfg = SystemConfig::with_buffer(12);
        let svc = Service::new(ClosedSnapshot::build(&g, &cfg).unwrap());
        assert_eq!(svc.snapshot().epoch(), 0);
        let mut dynamo = tc_core::DynamicClosure::build(&g, &cfg).unwrap();
        svc.publish(dynamo.freeze(1).unwrap());
        assert_eq!(svc.snapshot().epoch(), 1);
    }

    #[test]
    fn collect_replies_keeps_payloads() {
        let svc = service();
        let s = stream();
        let with = svc
            .serve(&s, &ServeConfig::default().collect_replies(true))
            .unwrap();
        let without = svc.serve(&s, &ServeConfig::default()).unwrap();
        assert!(with.clients[0].records[0].reply.is_some());
        assert!(without.clients[0].records[0].reply.is_none());
        assert_eq!(with.digest(), without.digest());
    }

    #[test]
    fn a_failed_serve_names_the_lowest_numbered_failing_client() {
        let svc = service();
        let s = QueryStream::generate(300, 6, 8, MixSpec::MIXED, 0.8, LoopMode::Closed, 77);
        let mut session = SessionConfig::default();
        session.fault = Some(tc_storage::FaultConfig::new(5).permanent_reads(1.0));
        let failure = |workers| {
            let cfg = ServeConfig::default()
                .workers(workers)
                .session(session.clone());
            let err = svc.serve(&s, &cfg).expect_err("every page read fails");
            (err.client, err.seq)
        };
        // Every client fails; client 0 is handed out first, so it always
        // runs, whichever client fails first in time.
        let one = failure(1);
        assert_eq!(one.0, 0);
        for workers in [2, 4, 6] {
            assert_eq!(failure(workers), one, "workers={workers}");
        }
    }

    #[test]
    fn qps_is_positive() {
        let svc = service();
        let report = svc.serve(&stream(), &ServeConfig::default()).unwrap();
        assert!(report.qps() > 0.0);
    }
}
