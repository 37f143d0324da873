//! Property-based tests over the core invariants of the study, on the
//! in-workspace `tc-det` harness (seeded cases, greedy shrinking —
//! replay a failure with the printed `TC_DET_SEED=...`).

use tc_study::core::prelude::*;
use tc_study::det::check::{self, Checker};
use tc_study::det::{require, require_eq, Rng};
use tc_study::graph::{
    closure, condensation, model, transitive_reduction, DagGenerator, Graph, RectangleModel,
};

mod common;
use common::dag_of;

/// Raw generated input: node count plus unconstrained arc pairs. Kept
/// raw (rather than as a `Graph`) so shrinking can drop arcs directly.
type RawGraph = (usize, Vec<(u32, u32)>);

fn raw_graph(rng: &mut Rng, max_n: usize, max_arcs: usize) -> RawGraph {
    let n = rng.random_range(2..max_n);
    let pairs = check::vec_of(rng, 0..max_arcs, |r| {
        (r.random_range(0..n as u32), r.random_range(0..n as u32))
    });
    (n, pairs)
}

/// An arbitrary (possibly cyclic) graph.
fn any_of(&(n, ref pairs): &RawGraph) -> Graph {
    Graph::from_arcs(n, pairs.iter().copied())
}

fn shrink_raw(&(n, ref pairs): &RawGraph) -> Vec<RawGraph> {
    check::shrink_vec(pairs)
        .into_iter()
        .map(|p| (n, p))
        .collect()
}

/// TC(TC(G)) = TC(G): closure is idempotent.
#[test]
fn closure_is_idempotent() {
    Checker::new("closure_is_idempotent").cases(48).run(
        |rng| raw_graph(rng, 60, 200),
        shrink_raw,
        |raw| {
            let g = dag_of(raw);
            let tc1 = closure::dfs_closure(&g);
            let closed = Graph::from_arcs(
                g.n(),
                (0..g.n() as u32).flat_map(|u| tc1.row_ones(u).into_iter().map(move |v| (u, v))),
            );
            let tc2 = closure::dfs_closure(&closed);
            require_eq!(tc1, tc2);
            Ok(())
        },
    );
}

/// The three in-memory oracles agree on DAGs.
#[test]
fn oracles_agree() {
    Checker::new("oracles_agree").cases(48).run(
        |rng| raw_graph(rng, 60, 200),
        shrink_raw,
        |raw| {
            let g = dag_of(raw);
            let a = closure::dfs_closure(&g);
            require_eq!(a, closure::warshall(&g));
            require_eq!(a, closure::warren(&g));
            Ok(())
        },
    );
}

/// Theorem 1: H(G) = H(TR(G)) = H(TC(G)); W(TR) <= W(G) <= W(TC).
#[test]
fn rectangle_model_theorem() {
    Checker::new("rectangle_model_theorem").cases(48).run(
        |rng| raw_graph(rng, 50, 150),
        shrink_raw,
        |raw| {
            let g = dag_of(raw);
            let tr = transitive_reduction(&g);
            let tc_m = closure::dfs_closure(&g);
            let tc = Graph::from_arcs(
                g.n(),
                (0..g.n() as u32).flat_map(|u| tc_m.row_ones(u).into_iter().map(move |v| (u, v))),
            );
            let (mg, mtr, mtc) = (
                RectangleModel::of(&g),
                RectangleModel::of(&tr),
                RectangleModel::of(&tc),
            );
            require!((mg.height - mtr.height).abs() < 1e-9, "H(G) != H(TR)");
            require!((mg.height - mtc.height).abs() < 1e-9, "H(G) != H(TC)");
            require!(mtr.width <= mg.width + 1e-9, "W(TR) > W(G)");
            require!(mg.width <= mtc.width + 1e-9, "W(G) > W(TC)");
            Ok(())
        },
    );
}

/// The engine's BTC marking realizes the transitive reduction.
#[test]
fn marking_is_transitive_reduction() {
    Checker::new("marking_is_transitive_reduction")
        .cases(48)
        .run(
            |rng| raw_graph(rng, 50, 150),
            shrink_raw,
            |raw| {
                let g = dag_of(raw);
                let tr = transitive_reduction(&g);
                let mut db = Database::build(&g, false).unwrap();
                let res = db
                    .run(&Query::full(), Algorithm::Btc, &SystemConfig::default())
                    .unwrap();
                require_eq!(res.metrics.unions as usize, tr.arc_count());
                require_eq!(
                    res.metrics.arcs_marked as usize,
                    g.arc_count() - tr.arc_count()
                );
                Ok(())
            },
        );
}

/// Every disk-based algorithm equals the oracle on random DAGs and
/// random source sets.
#[test]
fn algorithms_match_oracle() {
    Checker::new("algorithms_match_oracle").cases(48).run(
        |rng| {
            let raw = raw_graph(rng, 40, 120);
            let n = raw.0 as u32;
            let sources = check::vec_of(rng, 1..5, |r| r.random_range(0..n));
            (raw, sources)
        },
        |(raw, sources)| {
            let mut out: Vec<(RawGraph, Vec<u32>)> = shrink_raw(raw)
                .into_iter()
                .map(|r| (r, sources.clone()))
                .collect();
            if sources.len() > 1 {
                out.extend(
                    check::shrink_vec(sources)
                        .into_iter()
                        .filter(|s| !s.is_empty())
                        .map(|s| (raw.clone(), s)),
                );
            }
            out
        },
        |(raw, sources)| {
            let g = dag_of(raw);
            let expect = closure::ptc_answer(&g, sources);
            let mut db = Database::build(&g, true).unwrap();
            let cfg = SystemConfig::default().collecting();
            for algo in Algorithm::ALL {
                let res = db
                    .run(&Query::partial(sources.clone()), algo, &cfg)
                    .unwrap();
                require_eq!(res.answer.as_deref().unwrap(), &expect[..], "{}", algo);
            }
            Ok(())
        },
    );
}

/// Condensation is acyclic and closure-equivalent on arbitrary graphs.
#[test]
fn condensation_preserves_reachability() {
    Checker::new("condensation_preserves_reachability")
        .cases(48)
        .run(
            |rng| raw_graph(rng, 40, 160),
            shrink_raw,
            |raw| {
                let g = any_of(raw);
                let c = condensation(&g);
                require!(c.graph.is_acyclic(), "condensation has a cycle");
                let direct = closure::dfs_closure(&g);
                let ctc = closure::dfs_closure(&c.graph);
                for u in 0..g.n() as u32 {
                    for v in 0..g.n() as u32 {
                        let (cu, cv) = (c.component[u as usize], c.component[v as usize]);
                        let reachable = if cu == cv {
                            u == v && c.members[cu as usize].len() > 1
                                || (u != v && c.members[cu as usize].len() > 1)
                        } else {
                            ctc.get(cu, cv)
                        };
                        require_eq!(direct.get(u, v), reachable, "({}, {})", u, v);
                    }
                }
                Ok(())
            },
        );
}

/// Node levels are 1 + max over children, everywhere.
#[test]
fn levels_definition() {
    Checker::new("levels_definition").cases(48).run(
        |rng| raw_graph(rng, 60, 200),
        shrink_raw,
        |raw| {
            let g = dag_of(raw);
            let levels = model::node_levels(&g);
            for u in 0..g.n() as u32 {
                let expect = 1 + g
                    .children(u)
                    .iter()
                    .map(|&v| levels[v as usize])
                    .max()
                    .unwrap_or(0);
                require_eq!(levels[u as usize], expect);
            }
            Ok(())
        },
    );
}

/// Metric consistency on generated workloads.
#[test]
fn metric_invariants() {
    Checker::new("metric_invariants").cases(24).run(
        |rng| (rng.random_range(0..500u64), rng.random_range(1..8usize)),
        check::shrink_none,
        |&(seed, s)| {
            let g = DagGenerator::new(150, 4.0, 40).seed(seed).generate();
            let sources: Vec<u32> = (0..s as u32 * 13 % 150).step_by(13).collect();
            if sources.is_empty() {
                return Ok(()); // vacuous case (the old prop_assume!)
            }
            let mut db = Database::build(&g, true).unwrap();
            for algo in [
                Algorithm::Btc,
                Algorithm::Bj,
                Algorithm::Jkb2,
                Algorithm::Srch,
            ] {
                let res = db
                    .run(
                        &Query::partial(sources.clone()),
                        algo,
                        &SystemConfig::default(),
                    )
                    .unwrap();
                let m = &res.metrics;
                require!(m.arcs_marked <= m.arcs_processed, "{}", algo);
                require!(m.source_tuples <= m.tuples_generated, "{}", algo);
                // List-based and tree-based algorithms perform at most one
                // union per processed arc. (SRCH is exempt: it counts one
                // union per *visited node*, which on sparse fringes can
                // exceed the arc count.)
                if algo != Algorithm::Srch {
                    require!(m.unions <= m.arcs_processed, "{}", algo);
                }
                require!(
                    m.buffer.hits + m.buffer.misses == m.buffer.requests,
                    "{}",
                    algo
                );
                let by_kind: u64 = m
                    .disk
                    .reads_by_kind
                    .iter()
                    .chain(&m.disk.writes_by_kind)
                    .sum();
                require_eq!(m.total_io(), by_kind, "{}", algo);
                require!(m.selection_efficiency() <= 1.0 + 1e-9, "{}", algo);
            }
            Ok(())
        },
    );
}

/// `AnswerCollector::into_pairs` (no pair compared with another while
/// the answer is dense and duplicate-free) returns exactly what a
/// comparison sort returns, duplicates included — on arbitrary pairs,
/// on a single source, and with one node.
#[test]
fn answer_pairs_come_out_like_a_comparison_sort() {
    use tc_study::core::algorithms::AnswerCollector;
    let sorted_by_collector = |pairs: &[(u32, u32)]| {
        let mut a = AnswerCollector::new(true);
        for &(s, x) in pairs {
            a.emit(s, x);
        }
        a.into_pairs()
    };
    assert!(sorted_by_collector(&[]).is_empty());
    assert_eq!(sorted_by_collector(&[(0, 0)]), vec![(0, 0)]);
    Checker::new("into_pairs_eq_sort_unstable").cases(128).run(
        |rng| {
            let n = match rng.random_range(0..4u32) {
                0 => 1,
                _ => rng.random_range(1..300u32),
            };
            let one_source = rng.random_bool(0.25).then(|| rng.random_range(0..n));
            check::vec_of(rng, 0..400, |r| {
                let s = one_source.unwrap_or_else(|| r.random_range(0..n));
                (s, r.random_range(0..n))
            })
        },
        check::shrink_vec,
        |pairs| {
            let mut expect = pairs.clone();
            expect.sort_unstable();
            require_eq!(sorted_by_collector(pairs), expect);
            Ok(())
        },
    );
}

/// The same equality on answers shaped like the engine's: dense rows
/// (the bit-matrix path, which random pairs over 300 ids never reach)
/// emitted in per-source runs as BTC/HYB/SPN do or interleaved by
/// successor as JKB/SRCH do, sources with no tuples, successor ids on
/// both sides of a 64-bit word and at `n - 1`, and tuples repeated
/// inside a run and across runs.
#[test]
fn answer_pairs_of_every_emission_shape_come_out_sorted() {
    use tc_study::core::algorithms::AnswerCollector;
    /// Node count, emission order (0 source runs, 1 runs in scrambled
    /// source order, 2 by successor), the tuples, and which to repeat.
    type Case = (u32, u32, Vec<(u32, u32)>, Vec<usize>);
    Checker::new("into_pairs_emission_shapes").cases(128).run(
        |rng| -> Case {
            let n =
                [1, 63, 64, 65, 66, 129, rng.random_range(2..260u32)][rng.random_range(0..7usize)];
            let density = [0.02, 0.4, 0.9][rng.random_range(0..3usize)];
            let mut pairs = Vec::new();
            for s in 0..n {
                if rng.random_bool(0.2) {
                    continue; // a source with no tuples
                }
                for x in [62, 63, 64, 65, n - 1] {
                    if x < n && rng.random_bool(0.5) {
                        pairs.push((s, x));
                    }
                }
                pairs.extend((0..n).filter(|_| rng.random_bool(density)).map(|x| (s, x)));
            }
            pairs.sort_unstable();
            pairs.dedup(); // only `repeats` repeats a tuple
            let repeats = match rng.random_range(0..3u32) {
                0 if !pairs.is_empty() => {
                    check::vec_of(rng, 1..4, |r| r.random_range(0..pairs.len()))
                }
                _ => Vec::new(),
            };
            (n, rng.random_range(0..3u32), pairs, repeats)
        },
        |(n, order, pairs, repeats)| {
            let mut out: Vec<Case> = check::shrink_vec(pairs)
                .into_iter()
                .map(|p| (*n, *order, p, Vec::new()))
                .collect();
            out.extend(check::shrink_vec(repeats).into_iter().map(|r| {
                let kept = r.into_iter().filter(|&i| i < pairs.len()).collect();
                (*n, *order, pairs.clone(), kept)
            }));
            out
        },
        |(n, order, pairs, repeats)| {
            let mut emitted = pairs.clone();
            // A repeat right after the original, and one at the very end
            // (another run of that source, or of that successor).
            for &i in repeats.iter().filter(|&&i| i < pairs.len()) {
                emitted.insert(i, pairs[i]);
                emitted.push(pairs[i]);
            }
            match order {
                0 => {}
                1 => emitted.sort_by_key(|&(s, _)| (s.wrapping_mul(0x9E37_79B1) % n, s)),
                _ => emitted.sort_by_key(|&(_, x)| x),
            }
            let mut a = AnswerCollector::new(true);
            for &(s, x) in &emitted {
                a.emit(s, x);
            }
            require_eq!(a.count(), emitted.len() as u64, "repeats are counted");
            emitted.sort();
            require_eq!(a.into_pairs(), emitted);
            Ok(())
        },
    );
}

/// Runs HYB (`ILIMIT` 0.9) on a 12-frame pool of which `squeeze` frames
/// are pinned by someone else; returns the answer and how many page
/// requests failed with `AllFramesPinned` (each one a forced shrink of
/// the diagonal block that the run survived).
fn hyb_on_a_squeezed_pool(
    g: &Graph,
    squeeze: usize,
    list_policy: ListPolicy,
) -> Result<(Vec<(u32, u32)>, usize), String> {
    use std::sync::Arc;
    use tc_study::buffer::BufferPool;
    use tc_study::core::algorithms::{hybrid, AnswerCollector};
    use tc_study::core::restructure::{restructure, RestructureOptions};
    use tc_study::storage::{FileKind, Pager};
    use tc_study::trace::{Event, Tracer, VecSink};

    let err = |e| format!("{e}");
    let mut db = Database::build(g, false).map_err(err)?;
    let mut pool = BufferPool::with_store(db.take_store().map_err(err)?, 12, PagePolicy::Lru);
    let scratch = pool.create_file(FileKind::Temp);
    for _ in 0..squeeze {
        let p = pool.alloc_page(scratch).map_err(err)?;
        pool.pin(p).map_err(err)?;
    }
    let mut metrics = CostMetrics::new(Algorithm::Hyb);
    let opts = RestructureOptions {
        single_parent_reduction: false,
        build_lists: true,
        tree_format: false,
        list_policy,
    };
    let mut r = restructure(&db, &mut pool, &Query::full(), &opts, &mut metrics).map_err(err)?;
    let mut answer = AnswerCollector::new(true);
    for u in 0..g.n() as u32 {
        for &c in r.children(u) {
            answer.emit(u, c);
        }
    }
    let sink = Arc::new(VecSink::unbounded());
    pool.set_tracer(Tracer::new(sink.clone()));
    hybrid::expand_all(&mut pool, &mut r, &mut metrics, &mut answer, 0.9).map_err(err)?;
    // No faults are armed, so a miss that neither read nor allocated its
    // page is one the pool refused for want of an unpinned frame.
    let count = |f: fn(&Event) -> bool| sink.events().iter().filter(|e| f(e)).count();
    let refused = count(|e| matches!(e, Event::BufMiss { .. }))
        - count(|e| matches!(e, Event::PageRead { .. } | Event::PageAlloc { .. }));
    Ok((answer.into_pairs(), refused))
}

/// Dynamic reblocking never fires on its own (a block is carved to fit
/// the frames HYB reserved), so force it: with 7 of 12 frames pinned
/// from outside, blocks carved for 9 pages cannot be pinned and must
/// shrink, some of them mid-expansion. The arc states and duplicate
/// filters kept by block position must carry the finished work over.
#[test]
fn hyb_validates_under_forced_reblocking() {
    let all = |g: &Graph| closure::ptc_answer(g, &(0..g.n() as u32).collect::<Vec<_>>());
    let g = DagGenerator::new(600, 5.0, 300).seed(5).generate();
    let (pairs, refused) = hyb_on_a_squeezed_pool(&g, 7, ListPolicy::Spill).unwrap();
    assert!(refused > 0, "the squeeze forced no reblocking");
    assert_eq!(pairs, all(&g));

    Checker::new("hyb_forced_reblocking").cases(16).run(
        |rng| {
            (
                raw_graph(rng, 400, 2500),
                rng.random_range(0..ListPolicy::ALL.len()),
            )
        },
        |(raw, lp)| shrink_raw(raw).into_iter().map(|r| (r, *lp)).collect(),
        |(raw, lp)| {
            let g = dag_of(raw);
            let (pairs, _) = hyb_on_a_squeezed_pool(&g, 7, ListPolicy::ALL[*lp])?;
            require!(pairs == all(&g), "HYB answer differs from the oracle");
            Ok(())
        },
    );
}
