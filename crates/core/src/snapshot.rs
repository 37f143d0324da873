//! Frozen, shareable snapshots of a closed database.
//!
//! A build (or a maintenance batch) ends with a consistent pair on disk:
//! the clustered base relation + index, and the materialized closure.
//! [`ClosedSnapshot`] captures exactly those files into an immutable
//! [`FrozenPageSet`], adds the chain-decomposition reachability index to
//! the capture — built in memory over the captured page ids, so the live
//! store never holds it ([`crate::DynamicClosure::freeze`]) — and
//! packages the read-only catalog next to them, so any number of serving
//! sessions can answer `reach`/`ptc`/`path` queries concurrently:
//!
//! * the page images and catalog are shared behind one `Arc` — zero
//!   copies per session, at open and after: a buffer pool over the
//!   session's store borrows the images it reads (the store lends them)
//!   instead of copying each missed page into a frame;
//! * each session opens its **own** [`FrozenStore`] (and buffer pool
//!   above it) via [`ClosedSnapshot::open_store`], so page reads never
//!   contend on pool or counter state and per-session I/O metrics stay
//!   deterministic at any worker count;
//! * updates never touch a snapshot: [`crate::DynamicClosure`] applies
//!   batches to the *live* database and publishes the result as a new
//!   snapshot ([`crate::DynamicClosure::freeze`]), while in-flight
//!   queries finish on the old epoch — the snapshot-isolation model of
//!   the serving layer in `tc-serve`.
//!
//! Query cost accounting mirrors the engines: `reach(u, v)` reads the
//! one label page holding entry `L[u][chain(v)]` of `u`'s component
//! ([`tc_reach::ReachIndex`]), and no page when `u` and `v` share a
//! component; `ptc(u)` reads exactly the closure pages holding row `u`;
//! and `path(u, v)` walks guided by the index, probing base-relation
//! children one node at a time. Every label lookup of a walk toward `v`
//! lands in one column of the chain-major labels file, `chain(v)`'s, so
//! a walk reads that column's few pages over and over instead of one
//! page per child tested. Accounting is by page requested, and a
//! request names only the pages the answer is decoded from.

use crate::closure_file::ClosureFile;
use crate::config::SystemConfig;
use crate::database::Database;
use std::sync::Arc;
use tc_graph::{Graph, NodeId};
use tc_reach::ReachIndex;
use tc_storage::{
    ClusteredRelation, FileId, FrozenPageSet, FrozenStore, Pager, StorageError, StorageResult,
};

/// An immutable, `Arc`-shared view of a closed database: catalog +
/// frozen page images + reachability index, stamped with an epoch.
///
/// The closure it serves `ptc` from is the live instance's closure file
/// as of the freeze, with the same row table: the table is shared, not
/// copied, and the snapshot reads a row through it like the live side.
/// The serving layer clones one `Arc<ClosedSnapshot>` per in-flight
/// query.
pub struct ClosedSnapshot {
    /// Publication stamp: 0 for the initial build, incremented by the
    /// service on every [`crate::DynamicClosure::freeze`] it publishes.
    epoch: u64,
    /// Backend the snapshot was frozen from (`"sim"` / `"file"`).
    origin: &'static str,
    /// The captured page images, shared by every session's store.
    pages: Arc<FrozenPageSet>,
    /// Clustered base relation (children probes for `path`).
    relation: ClusteredRelation,
    /// Materialized transitive closure with its row table; `ptc(u)`
    /// reads exactly the pages holding row `u`.
    closure: ClosureFile,
    /// Chain-decomposition reachability index (labels answer `reach`).
    reach: ReachIndex,
}

impl ClosedSnapshot {
    /// Builds a database + closure for `graph` under `cfg` and freezes
    /// it immediately at epoch 0 — the one-shot path for serving a
    /// static corpus. For a live corpus, keep the
    /// [`crate::DynamicClosure`] and freeze after each batch instead.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is cyclic, like [`crate::DynamicClosure::build`].
    pub fn build(graph: &Graph, cfg: &SystemConfig) -> StorageResult<ClosedSnapshot> {
        crate::dynamic::DynamicClosure::build(graph, cfg)?.freeze(0)
    }

    pub(crate) fn assemble(
        epoch: u64,
        origin: &'static str,
        pages: FrozenPageSet,
        relation: ClusteredRelation,
        closure: ClosureFile,
        reach: ReachIndex,
    ) -> ClosedSnapshot {
        ClosedSnapshot {
            epoch,
            origin,
            pages: Arc::new(pages),
            relation,
            closure,
            reach,
        }
    }

    /// The snapshot's publication epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of nodes in the frozen graph.
    pub fn n(&self) -> usize {
        self.closure.n()
    }

    /// Backend the snapshot was frozen from (`"sim"` / `"file"`).
    pub fn origin(&self) -> &'static str {
        self.origin
    }

    /// Tuples in the frozen closure.
    pub fn closure_tuples(&self) -> usize {
        self.closure.count()
    }

    /// Width k of the frozen reachability index.
    pub fn width(&self) -> usize {
        self.reach.width()
    }

    /// The frozen reachability index (label rows, decomposition).
    pub fn reach_index(&self) -> &ReachIndex {
        &self.reach
    }

    /// The shared frozen page images.
    pub fn pages(&self) -> &Arc<FrozenPageSet> {
        &self.pages
    }

    /// Opens a fresh private read-only store over the shared page
    /// images — one per serving session, with its own counters.
    pub fn open_store(&self) -> FrozenStore {
        FrozenStore::new(Arc::clone(&self.pages))
    }

    /// Whether `u` reaches `v` by a non-empty path, answered from the
    /// one persisted label entry it needs: one page request charged to
    /// `pager`, none when `u` and `v` share a component. Out-of-range
    /// vertices reach nothing.
    pub fn reach<P: Pager>(&self, pager: &mut P, u: NodeId, v: NodeId) -> StorageResult<bool> {
        if u as usize >= self.n() || v as usize >= self.n() {
            return Ok(false);
        }
        self.reach.reach(pager, u, v)
    }

    /// The partial transitive closure of `u`: every vertex reachable by
    /// a non-empty path, ascending. Reads exactly the closure pages
    /// holding row `u`. Out-of-range sources reach nothing.
    pub fn ptc<P: Pager>(&self, pager: &mut P, u: NodeId) -> StorageResult<Vec<NodeId>> {
        self.closure.row(pager, u)
    }

    /// One concrete `u → … → v` path (inclusive of both endpoints), or
    /// `None` when `v` is unreachable. The walk is guided: at each node
    /// it probes the base relation for the children and steps to the
    /// first (smallest-id) child that still reaches `v`, so the answer
    /// is deterministic and the cost is one `reach` lookup for `(u, v)`,
    /// then per hop one children read plus one label page per child
    /// tested with `reach`. Every one of those label pages belongs to
    /// column `chain(v)` (⌈N / 512⌉ pages, N the component count), so a
    /// walk reads one label column. Reachability here is irreflexive:
    /// `path(u, u)` is `None` on the frozen DAG.
    pub fn path<P: Pager>(
        &self,
        pager: &mut P,
        u: NodeId,
        v: NodeId,
    ) -> StorageResult<Option<Vec<NodeId>>> {
        if u == v || !self.reach(pager, u, v)? {
            return Ok(None);
        }
        let mut hops = vec![u];
        let mut cur = u;
        let mut kids = Vec::new();
        // A DAG walk strictly descends, so n hops bound any path; going
        // past that means the catalog and index disagree.
        for _ in 0..self.n() {
            kids.clear();
            self.relation.children(pager, cur, &mut kids)?;
            let mut next = None;
            for &c in &kids {
                if c == v {
                    hops.push(v);
                    return Ok(Some(hops));
                }
                if self.reach(pager, c, v)? {
                    next = Some(c);
                    break;
                }
            }
            match next {
                Some(c) => {
                    hops.push(c);
                    cur = c;
                }
                None => {
                    return Err(StorageError::Internal(
                        "path walk lost its target — closure and relation disagree",
                    ))
                }
            }
        }
        Err(StorageError::Internal(
            "path walk exceeded n hops — frozen graph is not acyclic",
        ))
    }
}

/// The files a snapshot captures from the live store: base relation,
/// clustered index and closure. The reach index is written into the
/// capture afterwards, never to the live store.
pub(crate) fn capture_set(db: &Database, closure: &ClosureFile) -> [FileId; 3] {
    let [relation, index] = db.relation.file_ids();
    [relation, index, closure.file_id()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicClosure;
    use tc_buffer::{BufferPool, PagePolicy};
    use tc_graph::{closure, DagGenerator};

    fn oracle(g: &Graph, u: NodeId) -> Vec<NodeId> {
        closure::successors_of(g, u)
    }

    fn fixture() -> (Graph, ClosedSnapshot) {
        let g = DagGenerator::new(300, 3.0, 60).seed(5).generate();
        let snap = ClosedSnapshot::build(&g, &SystemConfig::with_buffer(16)).unwrap();
        (g, snap)
    }

    #[test]
    fn ptc_matches_the_oracle_for_every_source() {
        let (g, snap) = fixture();
        let mut store = snap.open_store();
        for u in 0..g.n() as NodeId {
            assert_eq!(snap.ptc(&mut store, u).unwrap(), oracle(&g, u), "src {u}");
        }
    }

    #[test]
    fn reach_matches_closure_membership() {
        let (g, snap) = fixture();
        let mut pool = BufferPool::new(snap.open_store(), 8, PagePolicy::Lru);
        for u in (0..g.n() as NodeId).step_by(17) {
            let row = oracle(&g, u);
            for v in (0..g.n() as NodeId).step_by(13) {
                assert_eq!(
                    snap.reach(&mut pool, u, v).unwrap(),
                    row.binary_search(&v).is_ok(),
                    "{u}->{v}"
                );
            }
        }
    }

    #[test]
    fn paths_are_real_arcs_and_reach_their_target() {
        let (g, snap) = fixture();
        let mut store = snap.open_store();
        let mut found = 0;
        for u in (0..g.n() as NodeId).step_by(7) {
            for v in (0..g.n() as NodeId).step_by(11) {
                let p = snap.path(&mut store, u, v).unwrap();
                match p {
                    Some(hops) => {
                        found += 1;
                        assert_eq!(hops.first(), Some(&u));
                        assert_eq!(hops.last(), Some(&v));
                        for w in hops.windows(2) {
                            assert!(g.has_arc(w[0], w[1]), "fabricated arc {w:?}");
                        }
                    }
                    None => assert!(
                        u == v || !snap.reach(&mut store, u, v).unwrap(),
                        "no path yet reachable {u}->{v}"
                    ),
                }
            }
        }
        assert!(found > 0, "fixture produced no reachable pairs");
    }

    #[test]
    fn out_of_range_vertices_reach_nothing() {
        let (_, snap) = fixture();
        let mut store = snap.open_store();
        let big = snap.n() as NodeId + 9;
        assert!(!snap.reach(&mut store, big, 0).unwrap());
        assert!(!snap.reach(&mut store, 0, big).unwrap());
        assert!(snap.ptc(&mut store, big).unwrap().is_empty());
        assert_eq!(snap.path(&mut store, 0, big).unwrap(), None);
    }

    #[test]
    fn freeze_is_repeatable_and_does_not_disturb_the_live_side() {
        let g = DagGenerator::new(200, 3.0, 40).seed(8).generate();
        let cfg = SystemConfig::with_buffer(12);
        let mut live = DynamicClosure::build(&g, &cfg).unwrap();
        let a = live.freeze(1).unwrap();
        let b = live.freeze(2).unwrap();
        assert_eq!(a.closure_tuples(), b.closure_tuples());
        let (mut sa, mut sb) = (a.open_store(), b.open_store());
        for u in 0..g.n() as NodeId {
            assert_eq!(a.ptc(&mut sa, u).unwrap(), b.ptc(&mut sb, u).unwrap());
        }
        // The live instance still answers and still applies batches.
        assert_eq!(live.tuples().unwrap().len(), a.closure_tuples());
        // Insert an arc between two unconnected nodes so the batch is a
        // genuine closure change (and cannot close a cycle).
        let r0 = oracle(&g, 0);
        let v = (1..g.n() as NodeId)
            .find(|&v| r0.binary_search(&v).is_err() && oracle(&g, v).binary_search(&0).is_err())
            .unwrap();
        let res = live.apply(&[tc_graph::UpdateOp::Insert(0, v)]).unwrap();
        assert!(res.inserted > 0);
        // The old snapshots are unaffected by the mutation.
        assert_eq!(a.ptc(&mut sa, 0).unwrap(), oracle(&g, 0));
    }
}
