//! Seminaive — the iterative baseline (paper §8).
//!
//! The related-work surveys (\[1, 3, 19\] and the paper's own §8) measure
//! graph-based algorithms against Seminaive delta iteration; the
//! consistent finding — reproduced by our benches — is that the
//! graph-based family wins by a wide margin on page I/O for full closure
//! and low selectivity, while Seminaive remains viable for sufficiently
//! selective queries.
//!
//! This is a fully disk-based implementation, the regime Kabler, Ioannidis
//! and Carey studied: each round
//!
//! 1. joins the previous delta with the relation via the clustered index
//!    (index nested-loop join), spilling candidate tuples to a temp file;
//! 2. external-sorts the candidates; and
//! 3. sort-merges them against the accumulated closure file, rewriting it
//!    and emitting the genuinely new tuples as the next delta.
//!
//! Step 3's repeated rewriting of the growing closure is exactly the cost
//! that made Seminaive uncompetitive in those studies. Temp files of past
//! rounds are freed (their pages recycled), as a real system would.

use crate::algorithms::AnswerCollector;
use crate::database::Database;
use crate::metrics::CostMetrics;
use tc_buffer::BufferPool;
use tc_graph::NodeId;
use tc_obs::SpanRecorder;
use tc_storage::{external_sort, FileKind, RelationFile, StorageResult, TupleWriter};
use tc_trace::Event;

/// Runs seminaive iteration for the given sources. Returns the final
/// closure file (sorted by `(source, successor)`). `obs` records one
/// wall-clock span per fixpoint round (aggregated; non-gating).
pub fn run_seminaive(
    db: &Database,
    pool: &mut BufferPool,
    sources: &[NodeId],
    metrics: &mut CostMetrics,
    answer: &mut AnswerCollector,
    obs: &SpanRecorder,
) -> StorageResult<RelationFile> {
    let sort_mem = pool.capacity().saturating_sub(2).max(3);

    // Round 0: the sources' immediate successors are the first delta.
    let mut cand = TupleWriter::new(pool, FileKind::Temp);
    let mut kids: Vec<u32> = Vec::new();
    for &s in sources {
        kids.clear();
        db.relation.children(pool, s, &mut kids)?;
        metrics.count_list_fetch();
        for &c in &kids {
            metrics.count_tuple_read();
            if c != s {
                cand.push(pool, (s, c))?;
            }
        }
    }

    let mut tc = TupleWriter::new(pool, FileKind::Output).finish(); // empty closure
    let mut delta: RelationFile;
    let mut round: u64 = 0;
    loop {
        metrics.trace.emit(Event::IterationBegin { i: round });
        let _iter_span = obs.enter("iteration");
        round += 1;
        // Sort this round's candidates and merge them into the closure.
        let cand_file = cand.finish();
        let produced = cand_file.tuple_count();
        let sorted = external_sort(pool, &cand_file, sort_mem, FileKind::Temp)?;
        pool.free_file(cand_file.file_id())?;
        let (new_tc, new_delta) = merge_round(pool, &tc, &sorted, metrics, answer)?;
        pool.free_file(sorted.file_id())?;
        pool.free_file(tc.file_id())?;
        tc = new_tc;
        delta = new_delta;
        metrics.count_duplicates((produced - delta.tuple_count()) as u64);
        if delta.tuple_count() == 0 {
            pool.free_file(delta.file_id())?;
            break;
        }

        // Join the delta with the relation.
        cand = TupleWriter::new(pool, FileKind::Temp);
        let frontier = delta.scan(pool)?;
        pool.free_file(delta.file_id())?;
        for (s, x) in frontier {
            metrics.count_union();
            metrics.count_list_fetch();
            kids.clear();
            db.relation.children(pool, x, &mut kids)?;
            metrics.count_arcs_bulk(kids.len() as u64);
            for &c in &kids {
                metrics.count_tuple_read();
                if c != s {
                    cand.push(pool, (s, c))?;
                }
            }
        }
    }
    Ok(tc)
}

/// Sort-merges `sorted` candidates into the accumulated closure `tc`,
/// producing the new closure and the delta of genuinely new tuples.
fn merge_round(
    pool: &mut BufferPool,
    tc: &RelationFile,
    sorted: &RelationFile,
    metrics: &mut CostMetrics,
    answer: &mut AnswerCollector,
) -> StorageResult<(RelationFile, RelationFile)> {
    // Materialize both sides page-at-a-time through the pool (charged),
    // then write the merge result back out (charged on eviction/flush).
    let old = tc.scan(pool)?;
    let new = sorted.scan(pool)?;

    let mut out = TupleWriter::new(pool, FileKind::Output);
    let mut delta = TupleWriter::new(pool, FileKind::Temp);
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < new.len() {
        if j >= new.len() || (i < old.len() && old[i] <= new[j]) {
            // Existing tuple wins ties; duplicate candidates skipped below.
            out.push(pool, old[i])?;
            if j < new.len() && new[j] == old[i] {
                // counted by the caller via produced - |delta|
            }
            i += 1;
            continue;
        }
        let t = new[j];
        j += 1;
        if t.1 == t.0 {
            continue;
        }
        // Skip duplicate candidates of the same round.
        while j < new.len() && new[j] == t {
            j += 1;
        }
        if old.binary_search(&t).is_err() {
            out.push(pool, t)?;
            delta.push(pool, t)?;
            metrics.count_generated(true);
            answer.emit(t.0, t.1);
        }
    }
    Ok((out.finish(), delta.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algorithm;
    use tc_buffer::PagePolicy;
    use tc_graph::{closure, DagGenerator, Graph};

    type Pairs = Vec<(u32, u32)>;

    fn run(g: &Graph, sources: &[NodeId]) -> (CostMetrics, Pairs, Pairs) {
        let mut db = Database::build(g, false).unwrap();
        let disk = db.store.take().unwrap();
        let mut pool = BufferPool::with_store(disk, 10, PagePolicy::Lru);
        let mut metrics = CostMetrics::new(Algorithm::Seminaive);
        let mut answer = AnswerCollector::new(true);
        let tc = run_seminaive(
            &db,
            &mut pool,
            sources,
            &mut metrics,
            &mut answer,
            &SpanRecorder::disabled(),
        )
        .unwrap();
        let on_disk = tc.scan(&mut pool).unwrap();
        (metrics, answer.into_pairs(), on_disk)
    }

    #[test]
    fn matches_oracle_single_source() {
        let g = DagGenerator::new(200, 3.0, 50).seed(3).generate();
        let (_, pairs, on_disk) = run(&g, &[0]);
        let expect = closure::ptc_answer(&g, &[0]);
        assert_eq!(pairs, expect);
        assert_eq!(on_disk, expect, "closure file holds the sorted answer");
    }

    #[test]
    fn matches_oracle_full() {
        let g = DagGenerator::new(150, 3.0, 40).seed(11).generate();
        let all: Vec<u32> = (0..150).collect();
        let (_, pairs, _) = run(&g, &all);
        assert_eq!(pairs, closure::ptc_answer(&g, &all));
    }

    #[test]
    fn duplicate_derivations_are_counted_not_kept() {
        // A diamond derives its sink twice.
        let g = Graph::from_arcs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let (m, pairs, _) = run(&g, &[0]);
        assert_eq!(pairs, vec![(0, 1), (0, 2), (0, 3)]);
        assert_eq!(m.duplicates, 1);
        assert_eq!(m.tuples_generated, 3);
    }

    #[test]
    fn rewriting_the_closure_costs_io_per_round() {
        // The defining inefficiency: I/O grows with depth × closure size,
        // far beyond the closure's own footprint.
        let g = tc_graph::gen::path(600); // 600-node chain: deep, tiny TC
        let (m, pairs, _) = run(&g, &[0]);
        assert_eq!(pairs.len(), 599);
        let tc_pages = (599 / 256 + 1) as u64;
        assert!(m.total_io() == 0 || m.list_fetches > 0);
        // Each of ~599 rounds rewrites the closure file.
        assert!(
            m.unions >= 500,
            "one union per delta tuple per round: {}",
            m.unions
        );
        let _ = tc_pages;
    }

    #[test]
    fn empty_sources_empty_answer() {
        let g = DagGenerator::new(50, 2.0, 10).seed(2).generate();
        let (m, pairs, _) = run(&g, &[]);
        assert!(pairs.is_empty());
        assert_eq!(m.tuples_generated, 0);
    }

    #[test]
    fn temp_files_are_recycled() {
        let g = DagGenerator::new(300, 4.0, 80).seed(7).generate();
        let mut db = Database::build(&g, false).unwrap();
        let disk = db.store.take().unwrap();
        let pages_before = disk.page_count();
        let mut pool = BufferPool::with_store(disk, 10, PagePolicy::Lru);
        let mut metrics = CostMetrics::new(Algorithm::Seminaive);
        let mut answer = AnswerCollector::new(false);
        let tc = run_seminaive(
            &db,
            &mut pool,
            &(0..300).collect::<Vec<_>>(),
            &mut metrics,
            &mut answer,
            &SpanRecorder::disabled(),
        )
        .unwrap();
        let disk = pool.into_store_discard();
        // Page recycling keeps the disk from ballooning to the sum of all
        // intermediate files: allow the closure plus a small multiple.
        let tc_pages = tc.page_count();
        assert!(
            disk.page_count() - pages_before < 4 * tc_pages + 64,
            "disk grew to {} pages for a {}-page closure",
            disk.page_count() - pages_before,
            tc_pages
        );
    }
}
