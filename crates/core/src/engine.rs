//! Query execution: the algorithms' phases inside one metered run
//! (the crate's `lifecycle` module), write-out, validation.

use crate::algorithms::{btc, hybrid, jkb, search, seminaive, spn, AnswerCollector};
use crate::config::SystemConfig;
use crate::database::Database;
use crate::lifecycle::MeteredRun;
use crate::metrics::CostMetrics;
use crate::query::Query;
use crate::restructure::{restructure, RestructureOptions};
use crate::Algorithm;
use tc_buffer::BufferPool;
use tc_graph::{closure, MagicGraph, NodeId, RectangleModel};
use tc_reach::ReachIndex;
use tc_storage::{FileKind, StorageResult, TupleWriter};

/// The outcome of one query execution.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The full metric suite.
    pub metrics: CostMetrics,
    /// The answer tuples `(source, successor)`, if collection was enabled
    /// in the [`SystemConfig`]. Sorted; the algorithms emit each tuple
    /// once, and nothing here would drop a repeat if one did not.
    pub answer: Option<Vec<(NodeId, NodeId)>>,
}

pub(crate) fn run(
    db: &mut Database,
    query: &Query,
    algorithm: Algorithm,
    cfg: &SystemConfig,
) -> StorageResult<RunResult> {
    let (mut run, store) = MeteredRun::arm(db, "run", algorithm, cfg)?;
    let mut pool = run.open_pool(store);
    let mut answer = AnswerCollector::traced(cfg.validate || cfg.collect_answer, cfg.trace.clone())
        .with_id_bound(db.n());
    let outcome = execute(db, &mut run, &mut pool, query, algorithm, cfg, &mut answer);
    let ((), mut metrics) = run.finish(db, pool, outcome)?;
    metrics.answer_tuples = answer.count();

    let answer_pairs = if cfg.validate || cfg.collect_answer {
        let pairs = answer.into_pairs();
        if cfg.validate {
            validate(db, query, algorithm, &pairs);
        }
        Some(pairs)
    } else {
        None
    };

    Ok(RunResult {
        metrics,
        answer: answer_pairs,
    })
}

/// The body of a run: the algorithm's two phases, with
/// `run.enter_compute` at the point its restructuring ends.
fn execute(
    db: &mut Database,
    run: &mut MeteredRun,
    pool: &mut BufferPool,
    query: &Query,
    algorithm: Algorithm,
    cfg: &SystemConfig,
    answer: &mut AnswerCollector,
) -> StorageResult<()> {
    match algorithm {
        Algorithm::Btc | Algorithm::Hyb | Algorithm::Bj | Algorithm::Spn => {
            let mut r = restructure(
                db,
                pool,
                query,
                &RestructureOptions {
                    single_parent_reduction: algorithm == Algorithm::Bj,
                    build_lists: true,
                    tree_format: algorithm == Algorithm::Spn,
                    list_policy: cfg.list_policy,
                },
                &mut run.metrics,
            )?;
            // The immediate children of sources are answer tuples.
            for &s in &r.sources.clone() {
                for &c in r.children(s) {
                    answer.emit(s, c);
                }
            }
            run.enter_compute(pool);
            match algorithm {
                Algorithm::Spn => spn::expand_all(pool, &mut r, &mut run.metrics, answer)?,
                Algorithm::Hyb => {
                    hybrid::expand_all(pool, &mut r, &mut run.metrics, answer, cfg.ilimit)?
                }
                _ => btc::expand_all(pool, &mut r, &mut run.metrics, answer)?,
            }
            {
                let _w = cfg.obs.enter("write_out");
                write_out_lists(pool, &r.store, &r.sources, query)?;
            }
            run.metrics
                .set_tuple_writes(r.store.stats().entries_written);
            Ok(())
        }
        Algorithm::Srch => {
            let sources = query.effective_sources(db.n());
            // Node levels for the locality metric: pure bookkeeping
            // derived from the workload description (never charged).
            let magic = MagicGraph::of(db.graph(), &sources);
            let levels = tc_graph::model::node_levels(&magic.graph);
            let store = search::run_search(
                db,
                pool,
                &sources,
                &levels,
                cfg.list_policy,
                &mut run.metrics,
                answer,
            )?;
            // SRCH's work happens in the preprocessing phase; the
            // computation phase is only the write-out.
            run.enter_compute(pool);
            pool.flush_file(store.file_id())?;
            run.metrics.set_tuple_writes(store.stats().entries_written);
            Ok(())
        }
        Algorithm::Jkb | Algorithm::Jkb2 => {
            let r = restructure(
                db,
                pool,
                query,
                &RestructureOptions {
                    single_parent_reduction: false,
                    build_lists: false,
                    tree_format: false,
                    list_policy: cfg.list_policy,
                },
                &mut run.metrics,
            )?;
            let mode = if algorithm == Algorithm::Jkb2 {
                jkb::Preprocessing::DualRepresentation
            } else if cfg.jkb_sort_preprocessing {
                jkb::Preprocessing::SortedInsertion
            } else {
                jkb::Preprocessing::RandomInsertion
            };
            let pred = jkb::preprocess(db, pool, &r, mode, cfg.list_policy, &mut run.metrics)?;
            run.enter_compute(pool);
            let mut output = TupleWriter::new(pool, FileKind::Output);
            let trees = jkb::compute(pool, &r, &pred, &mut run.metrics, answer, &mut output)?;
            // Write out the answer; the trees and predecessor lists are
            // scratch state.
            let out_file = output.finish();
            pool.flush_file(out_file.file_id())?;
            pool.discard_file(trees.file_id())?;
            pool.discard_file(pred.file_id())?;
            run.metrics
                .set_tuple_writes(pred.stats().entries_written + trees.stats().entries_written);
            Ok(())
        }
        Algorithm::Seminaive => {
            // No restructuring phase at all.
            run.enter_compute(pool);
            let sources = query.effective_sources(db.n());
            let tc_file =
                seminaive::run_seminaive(db, pool, &sources, &mut run.metrics, answer, &cfg.obs)?;
            pool.flush_file(tc_file.file_id())?;
            run.metrics.set_tuple_writes(tc_file.tuple_count() as u64);
            Ok(())
        }
        Algorithm::ReachIndex => {
            // Restructure: condense, decompose into concurrent chains,
            // compute the interval labels, persist the index. The flush
            // lands before the phase boundary — the persisted index is
            // the phase's durable product, like the successor lists of
            // the list-based algorithms.
            let idx = {
                let _s = cfg.obs.enter("reach_index_build");
                ReachIndex::build(pool, db.graph(), &cfg.trace, &mut run.metrics)?
            };
            let cond = idx.condensation();
            run.metrics.set_magic_nodes(cond.component_count() as u64);
            run.metrics.set_magic_arcs(cond.graph.arc_count() as u64);
            run.metrics.set_rect(RectangleModel::of(&cond.graph));
            for f in idx.files() {
                pool.flush_file(f)?;
            }
            run.enter_compute(pool);

            // Compute: fetch the sources' persisted label rows (one read
            // of each label column, over the sources' span) and, per
            // source, scan the chain suffixes its row points at — every
            // component on chain c at a position ≥ the label is
            // reachable, each exactly once (chains partition the
            // condensation).
            let sources = query.effective_sources(db.n());
            let mut output = TupleWriter::new(pool, FileKind::Output);
            let comps: Vec<NodeId> = sources.iter().map(|&s| idx.component(s)).collect();
            let mut rows: Vec<u32> = Vec::new();
            idx.label_rows(pool, &comps, &mut run.metrics, &mut rows)?;
            let mut suffix: Vec<u32> = Vec::new();
            let k = idx.width().max(1);
            let none = idx.decomposition().longest();
            for ((&s, &a), row) in sources.iter().zip(&comps).zip(rows.chunks_exact(k)) {
                run.metrics.count_list_fetch();
                for (c, &p) in row.iter().enumerate() {
                    if p == none {
                        continue; // reaches nothing on chain c
                    }
                    idx.chain_suffix(pool, c as u32, p, &mut suffix)?;
                    run.metrics.count_tuple_reads(suffix.len() as u64);
                    for &b in &suffix {
                        if b == a && !cond.is_cyclic(a) {
                            continue; // trivial component: irreflexive
                        }
                        for &v in &cond.members[b as usize] {
                            run.metrics.count_generated(true);
                            answer.emit(s, v);
                            output.push(pool, (s, v))?;
                        }
                    }
                }
            }
            let out_file = output.finish();
            pool.flush_file(out_file.file_id())?;
            run.metrics.set_tuple_writes(
                idx.label_entries() + idx.chain_entries() + out_file.tuple_count() as u64,
            );
            Ok(())
        }
    }
}

/// End-of-run write-out for the list-based algorithms: full closure
/// flushes the whole successor file; a selection writes out only the
/// pages holding source lists and discards the rest (paper §4: "only the
/// expanded lists of the query source nodes are written out").
fn write_out_lists(
    pool: &mut BufferPool,
    store: &tc_succ::SuccStore,
    sources: &[NodeId],
    query: &Query,
) -> StorageResult<()> {
    if query.is_full() {
        pool.flush_file(store.file_id())
    } else {
        let mut pages: Vec<tc_storage::PageId> = Vec::new();
        for &s in sources {
            store.add_pages_of(s, &mut pages);
        }
        pool.flush_pages(&pages)?;
        pool.discard_file(store.file_id())
    }
}

/// Oracle validation: the answer must equal the in-memory PTC answer.
fn validate(db: &Database, query: &Query, algorithm: Algorithm, pairs: &[(NodeId, NodeId)]) {
    let sources = query.effective_sources(db.n());
    let expect = closure::ptc_answer(db.graph(), &sources);
    assert_eq!(
        pairs.len(),
        expect.len(),
        "{algorithm}: answer size {} != oracle {}",
        pairs.len(),
        expect.len()
    );
    assert_eq!(
        pairs,
        &expect[..],
        "{algorithm}: answer differs from oracle"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::DagGenerator;

    fn db_for(seed: u64) -> Database {
        let g = DagGenerator::new(300, 4.0, 80).seed(seed).generate();
        Database::build(&g, true).unwrap()
    }

    #[test]
    fn every_algorithm_validates_on_full_closure() {
        let mut db = db_for(1);
        let cfg = SystemConfig::default().validated();
        for algo in Algorithm::ALL {
            let res = db.run(&Query::full(), algo, &cfg).unwrap();
            assert!(res.metrics.total_io() > 0, "{algo}");
            assert_eq!(
                res.metrics.answer_tuples,
                res.answer.as_ref().unwrap().len() as u64
            );
        }
    }

    #[test]
    fn every_algorithm_validates_on_ptc() {
        let mut db = db_for(2);
        let cfg = SystemConfig::default().validated();
        let q = Query::partial(vec![3, 50, 120]);
        let mut answers = Vec::new();
        for algo in Algorithm::ALL {
            let res = db.run(&q, algo, &cfg).unwrap();
            answers.push(res.answer.unwrap());
        }
        // All eight agree (validation already checked vs oracle).
        for w in answers.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn phases_partition_total_io() {
        let mut db = db_for(3);
        let cfg = SystemConfig::default();
        let res = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap();
        let m = &res.metrics;
        let by_kind: u64 = m
            .disk
            .reads_by_kind
            .iter()
            .chain(&m.disk.writes_by_kind)
            .sum();
        assert_eq!(m.total_io(), by_kind, "kind breakdown sums to total");
        assert!(m.restructure_io.total() > 0);
        assert!(m.compute_io.total() > 0);
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let mut db = db_for(4);
        let cfg = SystemConfig::default();
        let a = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap();
        let b = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap();
        assert_eq!(a.metrics.total_io(), b.metrics.total_io());
        assert_eq!(a.metrics.unions, b.metrics.unions);
        assert_eq!(a.metrics.tuples_generated, b.metrics.tuples_generated);
    }

    #[test]
    fn ptc_writes_less_than_full_closure() {
        let mut db = db_for(5);
        let cfg = SystemConfig::default();
        let full = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap();
        let ptc = db
            .run(&Query::partial(vec![7]), Algorithm::Btc, &cfg)
            .unwrap();
        assert!(ptc.metrics.total_io() < full.metrics.total_io());
    }

    #[test]
    fn larger_buffers_do_not_increase_io() {
        let mut db = db_for(6);
        let mut last = u64::MAX;
        for m in [10, 20, 50] {
            let cfg = SystemConfig::with_buffer(m);
            let res = db.run(&Query::full(), Algorithm::Btc, &cfg).unwrap();
            assert!(
                res.metrics.total_io() <= last,
                "M={m}: {} > {last}",
                res.metrics.total_io()
            );
            last = res.metrics.total_io();
        }
    }
}
