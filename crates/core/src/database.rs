//! The on-disk database: relation files, indexes, and the graph oracle.

use crate::advisor::{Advisor, WorkloadProfile};
use crate::config::SystemConfig;
use crate::engine::{self, RunResult};
use crate::query::Query;
use crate::Algorithm;
use tc_graph::{Graph, MagicGraph, RectangleModel};
use tc_storage::{ClusteredRelation, FileKind, PageStore, StorageError, StorageResult};

/// A loaded database instance (paper §4):
///
/// * the graph relation, a set of 8-byte `(src, dst)` tuples clustered on
///   the source attribute, with a clustered index;
/// * optionally the *inverse* relation, clustered and indexed on the
///   destination attribute — the dual representation `JKB2` requires;
/// * the in-memory [`Graph`], retained only for oracle validation and
///   workload statistics (query execution reads the disk).
///
/// Loading is not charged to queries: the store counters are reset after
/// the bulk load, matching the paper's setup where the relation simply
/// exists on disk before measurement starts.
///
/// The database runs over any [`PageStore`] backend — the simulated
/// counting disk (default) or the real file-backed store — selected with
/// [`Database::build_for`] via [`SystemConfig::backend`].
pub struct Database {
    pub(crate) store: Option<Box<dyn PageStore>>,
    pub(crate) graph: Graph,
    pub(crate) relation: ClusteredRelation,
    pub(crate) inverse: Option<ClusteredRelation>,
}

impl Database {
    /// Bulk-loads `graph` onto a fresh simulated disk.
    ///
    /// `with_inverse` also materializes the inverse relation (needed by
    /// [`Algorithm::Jkb2`]); the paper treats the dual representation as
    /// a database-design decision made before queries arrive.
    pub fn build(graph: &Graph, with_inverse: bool) -> StorageResult<Database> {
        Database::build_on(graph, with_inverse, tc_storage::Backend::Sim.open()?)
    }

    /// Bulk-loads `graph` onto the backend selected by `cfg.backend`
    /// (the simulated disk by default, or a real file-backed store).
    pub fn build_for(
        graph: &Graph,
        with_inverse: bool,
        cfg: &SystemConfig,
    ) -> StorageResult<Database> {
        Database::build_on(graph, with_inverse, cfg.backend.open()?)
    }

    /// Bulk-loads `graph` onto an already-opened [`PageStore`].
    pub fn build_on(
        graph: &Graph,
        with_inverse: bool,
        mut store: Box<dyn PageStore>,
    ) -> StorageResult<Database> {
        let disk = store.as_mut();
        let arcs: Vec<(u32, u32)> = graph.arcs().collect();
        let relation = ClusteredRelation::bulk_load(disk, FileKind::Relation, &arcs)?;
        let inverse = if with_inverse {
            let mut inv: Vec<(u32, u32)> = graph.arcs().map(|(u, v)| (v, u)).collect();
            inv.sort_unstable();
            Some(ClusteredRelation::bulk_load(
                disk,
                FileKind::InverseRelation,
                &inv,
            )?)
        } else {
            None
        };
        disk.reset_stats();
        Ok(Database {
            store: Some(store),
            graph: graph.clone(),
            relation,
            inverse,
        })
    }

    /// The logical graph (for statistics and oracles).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Whether the dual representation is materialized.
    pub fn has_inverse(&self) -> bool {
        self.inverse.is_some()
    }

    /// Profiles the query with the rectangle model, lets the default
    /// [`Advisor`] choose an algorithm, and runs it — the paper's §5.3
    /// "intelligent choice of which algorithm to employ" made executable.
    ///
    /// Returns the chosen algorithm alongside the result. The profile is
    /// computed from the in-memory workload description (the same
    /// statistics the restructuring phase collects for free; no I/O is
    /// charged for the decision).
    pub fn run_advised(
        &mut self,
        query: &Query,
        config: &SystemConfig,
    ) -> StorageResult<(Algorithm, RunResult)> {
        self.check_sources(query)?;
        let rect = if query.is_full() {
            RectangleModel::of(&self.graph)
        } else {
            let magic = MagicGraph::of(&self.graph, query.sources().unwrap_or(&[]));
            RectangleModel::of(&magic.graph)
        };
        let profile = WorkloadProfile::new(rect, query, self.n(), self.has_inverse());
        let algorithm = Advisor::default().recommend(&profile);
        let result = self.run(query, algorithm, config)?;
        Ok((algorithm, result))
    }

    /// Detaches the page store, e.g. to wrap it in a buffer pool when
    /// orchestrating the execution phases manually (the engine and the
    /// experiment harness do this). Pair with [`Database::restore_store`].
    ///
    /// Fails with [`StorageError::DiskDetached`] if the store is already
    /// taken and not yet restored.
    pub fn take_store(&mut self) -> StorageResult<Box<dyn PageStore>> {
        self.store.take().ok_or(StorageError::DiskDetached)
    }

    /// Reattaches a store taken with [`Database::take_store`].
    pub fn restore_store(&mut self, store: Box<dyn PageStore>) {
        self.store = Some(store);
    }

    /// Short name of the attached backend (`"sim"` / `"file"`), or
    /// `"detached"` while the store is taken.
    pub fn backend_name(&self) -> &'static str {
        self.store.as_ref().map_or("detached", |s| s.backend_name())
    }

    /// Executes `query` with `algorithm` under `config`, returning the
    /// result and its full metric suite.
    ///
    /// Each run gets a fresh buffer pool of `config.buffer_pages` frames;
    /// the base relation persists across runs (scratch files accumulate
    /// on the simulated disk but never interfere).
    pub fn run(
        &mut self,
        query: &Query,
        algorithm: Algorithm,
        config: &SystemConfig,
    ) -> StorageResult<RunResult> {
        self.check_sources(query)?;
        if algorithm.needs_inverse() && self.inverse.is_none() {
            // JKB2's defining assumption is the dual representation.
            return Err(StorageError::WrongFileKind {
                expected: "inverse-relation (build the Database with with_inverse = true)",
                actual: "none",
            });
        }
        engine::run(self, query, algorithm, config)
    }

    /// Refuses a query naming a source outside the graph with
    /// [`StorageError::UnknownNode`], before the run takes the store.
    fn check_sources(&self, query: &Query) -> StorageResult<()> {
        // `Query::partial` sorts its sources, so the last is the largest.
        match query.sources().and_then(|s| s.last()) {
            Some(&node) if node as usize >= self.n() => {
                Err(StorageError::UnknownNode { node, n: self.n() })
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::DagGenerator;

    #[test]
    fn build_lays_out_relation_and_index() {
        let g = DagGenerator::new(300, 3.0, 60).seed(1).generate();
        let db = Database::build(&g, false).unwrap();
        assert_eq!(db.relation.tuples().tuple_count(), g.arc_count());
        assert_eq!(
            db.relation.tuples().page_count(),
            g.arc_count().div_ceil(256)
        );
        assert!(!db.has_inverse());
        // Loading is not charged.
        assert_eq!(db.store.as_ref().unwrap().stats().total(), 0);
    }

    #[test]
    fn inverse_relation_mirrors_arcs() {
        let g = DagGenerator::new(100, 2.0, 30).seed(2).generate();
        let mut db = Database::build(&g, true).unwrap();
        assert!(db.has_inverse());
        let inv = db.inverse.as_ref().unwrap().tuples();
        assert_eq!(inv.tuple_count(), g.arc_count());
        let mut disk = db.store.take().unwrap();
        let inv_arcs = inv.scan(disk.as_mut()).unwrap();
        db.store = Some(disk);
        for (d, s) in inv_arcs {
            assert!(g.has_arc(s, d));
        }
    }

    #[test]
    fn run_advised_picks_and_runs() {
        let g = DagGenerator::new(400, 4.0, 100).seed(7).generate();
        let mut db = Database::build(&g, true).unwrap();
        let cfg = SystemConfig::default().validated();
        // Tiny source set: the advisor must pick SRCH and the run must
        // validate against the oracle.
        let (algo, res) = db.run_advised(&Query::partial(vec![3, 9]), &cfg).unwrap();
        assert_eq!(algo, Algorithm::Srch);
        assert!(res.metrics.answer_tuples > 0);
        // Full closure: BTC.
        let (algo, _) = db.run_advised(&Query::full(), &cfg).unwrap();
        assert_eq!(algo, Algorithm::Btc);
    }

    #[test]
    fn jkb2_requires_inverse() {
        let g = DagGenerator::new(50, 2.0, 10).seed(3).generate();
        let mut db = Database::build(&g, false).unwrap();
        let err = db.run(
            &Query::partial(vec![0]),
            Algorithm::Jkb2,
            &SystemConfig::default(),
        );
        assert!(err.is_err());
    }
}
