//! Snapshot-swap consistency: queries racing `DynamicClosure::apply`
//! batches must each see exactly one consistent closure.
//!
//! A publisher thread applies the batches of a seeded update stream
//! to the live `DynamicClosure`, freezing and publishing a snapshot
//! after each, while the service concurrently plays a query stream.
//! Every reply records the epoch that answered it; afterwards each
//! reply is checked against the incremental oracle *for that epoch* —
//! the same `closure::successors_of` oracle `dynamic_differential`
//! holds the maintained closure to. A reply mixing two epochs (a `ptc`
//! row with a tuple only one of them has, a `path` using an arc the
//! epoch deleted) fails the exact-epoch comparison.

use tc_study::core::prelude::*;
use tc_study::graph::{closure, DagGenerator, Graph, StreamKind, UpdateOp, UpdateStream};
use tc_study::serve::{LoopMode, MixSpec, QueryStream, Reply, Request, ServeConfig, Service};

const BATCHES: usize = 3;

/// The per-epoch graphs: epoch 0 is the base, epoch i the base after
/// the first i batches.
fn epoch_graphs(g: &Graph, stream: &UpdateStream) -> Vec<Graph> {
    let mut out = vec![g.clone()];
    let mut live = g.clone();
    for batch in stream.batches() {
        for op in batch {
            match *op {
                UpdateOp::Insert(u, v) => live.add_arc(u, v),
                UpdateOp::Delete(u, v) => live.remove_arc(u, v),
            };
        }
        out.push(live.clone());
    }
    out
}

#[test]
fn racing_queries_each_see_exactly_one_consistent_closure() {
    let g = DagGenerator::new(400, 3.0, 60).seed(33).generate();
    let updates = UpdateStream::generate(&g, StreamKind::Mixed, BATCHES, 12, 60, 0x5E12_0A11);
    let epochs = epoch_graphs(&g, &updates);

    let cfg = SystemConfig::with_buffer(16);
    let mut dyn_tc = DynamicClosure::build(&g, &cfg).expect("build");
    let service = Service::new(dyn_tc.freeze(0).expect("freeze epoch 0"));

    let queries = QueryStream::generate(
        g.n(),
        4,
        192,
        MixSpec::MIXED,
        0.8,
        LoopMode::Closed,
        0x5E12_0A12,
    );
    let serve_cfg = ServeConfig::default().workers(4).collect_replies(true);

    let report = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            for (i, batch) in updates.batches().iter().enumerate() {
                dyn_tc.apply(batch).expect("apply batch");
                service.publish(dyn_tc.freeze(i as u64 + 1).expect("freeze"));
            }
        });
        let report = service.serve(&queries, &serve_cfg).expect("serve");
        publisher.join().expect("publisher thread");
        report
    });

    assert_eq!(service.snapshot().epoch(), BATCHES as u64);
    assert_eq!(report.replies(), queries.len());

    let mut seen_epochs = [0usize; BATCHES + 1];
    for (c, client) in report.clients.iter().enumerate() {
        for record in &client.records {
            let req = queries.client(c)[record.seq];
            let epoch = record.epoch as usize;
            assert!(epoch <= BATCHES, "reply from unknown epoch {epoch}");
            seen_epochs[epoch] += 1;
            let eg = &epochs[epoch];
            let reply = record.reply.as_ref().expect("collected reply");
            match (req, reply) {
                (Request::Ptc { u }, Reply::Ptc(row)) => {
                    assert_eq!(
                        row,
                        &closure::successors_of(eg, u),
                        "ptc({u}) is not epoch {epoch}'s closure row"
                    );
                }
                (Request::Reach { u, v }, Reply::Reach(b)) => {
                    let expect = closure::successors_of(eg, u).binary_search(&v).is_ok();
                    assert_eq!(*b, expect, "reach({u},{v}) wrong for epoch {epoch}");
                }
                (Request::Path { u, v }, Reply::Path(hops)) => {
                    let expect = closure::successors_of(eg, u).binary_search(&v).is_ok();
                    match hops {
                        None => assert!(!expect, "path({u},{v}) missing in epoch {epoch}"),
                        Some(hops) => {
                            assert!(expect, "path({u},{v}) invented for epoch {epoch}");
                            assert_eq!((hops[0], *hops.last().expect("nonempty")), (u, v));
                            for w in hops.windows(2) {
                                assert!(
                                    eg.has_arc(w[0], w[1]),
                                    "path({u},{v}) uses arc {}→{} absent from epoch {epoch}",
                                    w[0],
                                    w[1]
                                );
                            }
                        }
                    }
                }
                (req, reply) => panic!("shape mismatch: {req:?} answered by {reply:?}"),
            }
        }
    }
    let observed: Vec<usize> = (0..=BATCHES).filter(|&e| seen_epochs[e] > 0).collect();
    assert!(!observed.is_empty());
    eprintln!("epoch reply counts: {seen_epochs:?} (observed epochs {observed:?})");
}

/// The same race, but with every update batch guaranteed to land
/// mid-stream: each publish happens between two serve calls, so the
/// suite also pins that a *quiescent* swap changes answers atomically —
/// replies before the publish all carry the old epoch, replies after
/// it all carry the new one, and both sides match their own oracle.
#[test]
fn quiescent_swaps_flip_the_epoch_atomically() {
    let g = DagGenerator::new(250, 3.0, 50).seed(34).generate();
    let updates = UpdateStream::generate(&g, StreamKind::Mixed, 2, 10, 50, 0x5E12_0A13);
    let epochs = epoch_graphs(&g, &updates);

    let cfg = SystemConfig::with_buffer(16);
    let mut dyn_tc = DynamicClosure::build(&g, &cfg).expect("build");
    let service = Service::new(dyn_tc.freeze(0).expect("freeze"));
    let queries = QueryStream::generate(
        g.n(),
        2,
        32,
        MixSpec::PTC_HEAVY,
        0.6,
        LoopMode::Closed,
        0x5E12_0A14,
    );
    let serve_cfg = ServeConfig::default().workers(2).collect_replies(true);

    for (i, batch) in updates.batches().iter().enumerate() {
        let report = service.serve(&queries, &serve_cfg).expect("serve");
        let eg = &epochs[i];
        for (c, client) in report.clients.iter().enumerate() {
            for record in &client.records {
                assert_eq!(record.epoch, i as u64, "stale epoch mid-quiescence");
                if let (Request::Ptc { u }, Some(Reply::Ptc(row))) =
                    (queries.client(c)[record.seq], record.reply.as_ref())
                {
                    assert_eq!(row, &closure::successors_of(eg, u), "epoch {i} ptc({u})");
                }
            }
        }
        dyn_tc.apply(batch).expect("apply");
        service.publish(dyn_tc.freeze(i as u64 + 1).expect("freeze"));
    }
    let last = service.serve(&queries, &serve_cfg).expect("final serve");
    for client in &last.clients {
        for record in &client.records {
            assert_eq!(record.epoch, updates.batches().len() as u64);
        }
    }
}
