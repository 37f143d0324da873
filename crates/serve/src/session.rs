//! Per-client serving sessions: a private buffer pool over the shared
//! snapshot plus a seeded hot-source cache.
//!
//! Each connected client gets one [`Session`]. The session owns every
//! piece of mutable state its queries touch — a [`tc_storage::FrozenStore`]
//! over the snapshot's shared page images, a buffer pool above it, and
//! the hot-source cache — so sessions never contend, and a session's
//! counters are a pure function of its own request sequence. That is
//! the serving layer's determinism contract: which worker thread runs a
//! session, and when, cannot change any counted number.
//!
//! The pool is private but holds no page images: a frozen store lends
//! its own, so the pool keeps only who is resident. A miss is still a
//! miss — a victim evicted, the read admitted through the store's whole
//! checked, fault-injectable, counted and traced sequence — it just
//! moves no bytes, and a session costs no `buffer_pages` × 2 KB.
//!
//! A rebind swaps in a fresh pool and store, so [`Session::pages_read`]
//! and [`Session::buffer_stats`] count one binding; the session's
//! ledger, [`SessionStats`] and a carried buffer total, counts them all.
//!
//! The hot-source cache is keyed on the source vertex and holds full
//! `ptc` rows. Admission happens on `ptc` misses (the row was just paid
//! for); `reach(u, v)` queries consult it first and answer by binary
//! search with zero I/O on a hit. Replacement is seeded-random from
//! `tc-det` (one victim draw per eviction, per-session stream), the
//! cheapest policy that is still bit-reproducible.

use crate::request::{Reply, Request};
use std::sync::Arc;
use tc_buffer::{BufferPool, BufferStats, PagePolicy};
use tc_core::ClosedSnapshot;
use tc_det::{cell_seed, Rng};
use tc_graph::NodeId;
use tc_storage::{FaultConfig, FaultPlan, PageStore, StorageResult};

/// Base seed of the cache-replacement streams: a session's stream is
/// `cell_seed(CACHE_SEED, [client])`.
const CACHE_SEED: u64 = 0x5E12_CA5E;

/// Per-session configuration: pool size, cache size, fault
/// plumbing. One config is shared by all sessions of a service run;
/// per-session randomness (fault streams from the config's seed, cache
/// replacement from a fixed one) is derived with [`cell_seed`] on the
/// client id. A session's pool is always LRU.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Frames of the session's private (LRU) buffer pool.
    pub buffer_pages: usize,
    /// Hot-source cache capacity, in sources (0 disables the cache).
    pub cache_sources: usize,
    /// Optional deterministic fault injection: each session arms its
    /// private store with a plan seeded `cell_seed(fault.seed, [client])`.
    pub fault: Option<FaultConfig>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            buffer_pages: 8,
            cache_sources: 4,
            fault: None,
        }
    }
}

impl SessionConfig {
    /// Builder-style: pool size in frames.
    pub fn buffer_pages(mut self, m: usize) -> Self {
        self.buffer_pages = m;
        self
    }

    /// Builder-style: hot-source cache capacity.
    pub fn cache_sources(mut self, n: usize) -> Self {
        self.cache_sources = n;
        self
    }

    /// Builder-style: arm deterministic fault injection per session.
    pub fn faulted(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// A session's logical counters and the pages it read, carried over
/// every rebind.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SessionStats {
    /// Requests handled.
    pub requests: u64,
    /// Hot-source cache probes (`reach` and `ptc` requests).
    pub cache_lookups: u64,
    /// Probes answered from the cache.
    pub cache_hits: u64,
    /// Physical pages read while handling each kind of request, indexed
    /// by [`Request::kind`]. Their sum is every page the session read,
    /// under every binding.
    pub pages_by_kind: [u64; 3],
}

/// The hot-source cache: full `ptc` rows keyed by source vertex, with
/// seeded-random replacement. Capacities are small (single digits), so
/// lookup is a linear scan.
struct SourceCache {
    cap: usize,
    entries: Vec<(NodeId, Vec<NodeId>)>,
    rng: Rng,
}

impl SourceCache {
    fn new(cap: usize, seed: u64) -> SourceCache {
        SourceCache {
            cap,
            entries: Vec::with_capacity(cap),
            rng: Rng::from_seed(seed),
        }
    }

    fn get(&self, u: NodeId) -> Option<&Vec<NodeId>> {
        self.entries.iter().find(|(k, _)| *k == u).map(|(_, v)| v)
    }

    /// Copies `row` only if it is actually stored.
    fn admit(&mut self, u: NodeId, row: &[NodeId]) {
        if self.cap == 0 || self.get(u).is_some() {
            return;
        }
        if self.entries.len() >= self.cap {
            let victim = self.rng.random_range(0..self.entries.len());
            self.entries.swap_remove(victim);
        }
        self.entries.push((u, row.to_vec()));
    }
}

/// One client's serving session over a frozen snapshot.
pub struct Session {
    snapshot: Arc<ClosedSnapshot>,
    pool: BufferPool,
    cache: SourceCache,
    stats: SessionStats,
    /// Buffer counters of the pools of earlier bindings.
    rebound_buffer: BufferStats,
    client: u64,
    cfg: SessionConfig,
}

impl Session {
    /// Opens a session for `client` over `snapshot`.
    pub fn new(snapshot: Arc<ClosedSnapshot>, cfg: &SessionConfig, client: u64) -> Session {
        let pool = Session::pool_for(&snapshot, cfg, client);
        Session {
            cache: SourceCache::new(cfg.cache_sources, cell_seed(CACHE_SEED, &[client])),
            snapshot,
            pool,
            stats: SessionStats::default(),
            rebound_buffer: BufferStats::default(),
            client,
            cfg: cfg.clone(),
        }
    }

    fn pool_for(snapshot: &Arc<ClosedSnapshot>, cfg: &SessionConfig, client: u64) -> BufferPool {
        let mut store = snapshot.open_store();
        if let Some(fault) = &cfg.fault {
            let mut plan = fault.clone();
            plan.seed = cell_seed(fault.seed, &[client]);
            store.set_fault_plan(FaultPlan::new(plan));
        }
        BufferPool::new(store, cfg.buffer_pages.max(1), PagePolicy::Lru)
    }

    /// The epoch of the snapshot this session currently reads.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Points the session at `snap` if its epoch differs from the
    /// current one: a fresh pool over the new page images, cache
    /// cleared (rows of the old closure must not answer for the new),
    /// the outgoing pool's buffer counters added to the session's
    /// carried total, logical counters kept. In-flight state of other
    /// sessions is untouched — this is how the service swaps snapshots
    /// while old epochs keep serving.
    pub fn rebind(&mut self, snap: Arc<ClosedSnapshot>) {
        if snap.epoch() == self.snapshot.epoch() {
            return;
        }
        let pool = Session::pool_for(&snap, &self.cfg, self.client);
        let old = std::mem::replace(&mut self.pool, pool);
        self.rebound_buffer = self.rebound_buffer.plus(old.stats());
        self.cache.entries.clear();
        self.snapshot = snap;
    }

    /// Handles one request against the current snapshot, and adds the
    /// pages it read to its kind's count.
    pub fn handle(&mut self, req: &Request) -> StorageResult<Reply> {
        self.stats.requests += 1;
        let before = self.pages_read();
        let reply = self.answer(req);
        self.stats.pages_by_kind[req.kind()] += self.pages_read() - before;
        reply
    }

    fn answer(&mut self, req: &Request) -> StorageResult<Reply> {
        match *req {
            Request::Reach { u, v } => {
                self.stats.cache_lookups += 1;
                if let Some(row) = self.cache.get(u) {
                    self.stats.cache_hits += 1;
                    return Ok(Reply::Reach(row.binary_search(&v).is_ok()));
                }
                Ok(Reply::Reach(self.snapshot.reach(&mut self.pool, u, v)?))
            }
            Request::Ptc { u } => {
                self.stats.cache_lookups += 1;
                if let Some(row) = self.cache.get(u) {
                    self.stats.cache_hits += 1;
                    return Ok(Reply::Ptc(row.clone()));
                }
                let row = self.snapshot.ptc(&mut self.pool, u)?;
                self.cache.admit(u, &row);
                Ok(Reply::Ptc(row))
            }
            Request::Path { u, v } => Ok(Reply::Path(self.snapshot.path(&mut self.pool, u, v)?)),
        }
    }

    /// The whole session's logical counters and per-kind pages read,
    /// every binding included.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Buffer-pool counters of this binding's pool: they start again at
    /// every rebind. The whole session's are a
    /// [`ClientReport::buffer`](crate::ClientReport::buffer).
    pub fn buffer_stats(&self) -> &BufferStats {
        self.pool.stats()
    }

    /// Buffer-pool counters of the whole session: every binding's pool,
    /// added.
    pub(crate) fn buffer_total(&self) -> BufferStats {
        self.rebound_buffer.plus(self.pool.stats())
    }

    /// Physical pages read under this binding (misses of its private
    /// pool, each admitted and charged by the frozen store; writes are
    /// impossible): they start again at every rebind. The whole
    /// session's are the sum of [`SessionStats::pages_by_kind`].
    pub fn pages_read(&self) -> u64 {
        self.pool.store().stats().reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::{DynamicClosure, SystemConfig};
    use tc_graph::{closure, DagGenerator};

    fn snapshot() -> (tc_graph::Graph, Arc<ClosedSnapshot>) {
        let g = DagGenerator::new(200, 3.0, 40).seed(12).generate();
        let snap = ClosedSnapshot::build(&g, &SystemConfig::with_buffer(12)).unwrap();
        (g, Arc::new(snap))
    }

    #[test]
    fn replies_match_the_oracle() {
        let (g, snap) = snapshot();
        let mut s = Session::new(Arc::clone(&snap), &SessionConfig::default(), 0);
        for u in (0..g.n() as NodeId).step_by(23) {
            let row = closure::successors_of(&g, u);
            assert_eq!(
                s.handle(&Request::Ptc { u }).unwrap(),
                Reply::Ptc(row.clone())
            );
            for v in (0..g.n() as NodeId).step_by(31) {
                let expect = row.binary_search(&v).is_ok();
                assert_eq!(
                    s.handle(&Request::Reach { u, v }).unwrap(),
                    Reply::Reach(expect)
                );
            }
        }
    }

    #[test]
    fn reach_after_ptc_hits_the_cache_with_zero_io() {
        let (_, snap) = snapshot();
        let mut s = Session::new(snap, &SessionConfig::default(), 0);
        s.handle(&Request::Ptc { u: 0 }).unwrap();
        let reads_before = s.pages_read();
        let hits_before = s.stats().cache_hits;
        s.handle(&Request::Reach { u: 0, v: 50 }).unwrap();
        assert_eq!(
            s.pages_read(),
            reads_before,
            "cached reach must cost no I/O"
        );
        assert_eq!(s.stats().cache_hits, hits_before + 1);
    }

    #[test]
    fn cache_evicts_deterministically() {
        let (_, snap) = snapshot();
        let cfg = SessionConfig::default().cache_sources(2);
        let run = || {
            let mut s = Session::new(Arc::clone(&snap), &cfg, 3);
            for u in [0u32, 5, 9, 0, 5, 9, 14, 0] {
                s.handle(&Request::Ptc { u }).unwrap();
            }
            (s.stats(), s.pages_read())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sessions_do_not_share_counters() {
        let (g, snap) = snapshot();
        let cfg = SessionConfig::default();
        let mut a = Session::new(Arc::clone(&snap), &cfg, 0);
        let b = Session::new(snap, &cfg, 1);
        let u = (0..g.n() as NodeId)
            .find(|&u| !closure::successors_of(&g, u).is_empty())
            .unwrap();
        a.handle(&Request::Ptc { u }).unwrap();
        assert!(a.pages_read() > 0);
        assert_eq!(b.pages_read(), 0);
    }

    #[test]
    fn the_ledger_keeps_every_binding_across_a_rebind() {
        let (g, snap) = snapshot();
        let cfg = SystemConfig::with_buffer(12);
        let next = DynamicClosure::build(&g, &cfg).unwrap().freeze(1).unwrap();
        let requests = [
            Request::Ptc { u: 3 },
            Request::Reach { u: 7, v: 150 },
            Request::Path { u: 0, v: 199 },
        ];
        // One binding's reads, as the binding itself counts them.
        let bind = |s: &mut Session| {
            for req in &requests {
                s.handle(req).unwrap();
            }
            (s.pages_read(), s.buffer_stats().clone())
        };
        let mut s = Session::new(snap, &SessionConfig::default(), 0);
        let (pages0, buffer0) = bind(&mut s);
        s.rebind(Arc::new(next));
        assert_eq!(s.epoch(), 1);
        let (pages1, buffer1) = bind(&mut s);
        assert!(pages0 > 0 && pages1 > 0, "a binding read nothing");
        assert_eq!(s.stats().pages_by_kind.iter().sum::<u64>(), pages0 + pages1);
        let buffer = buffer0.plus(&buffer1);
        assert_eq!(s.buffer_total(), buffer);
        assert_eq!(buffer.misses, pages0 + pages1, "one read per miss");
    }
}
