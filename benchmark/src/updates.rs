//! `update_publish`: writes beside reads. A round takes one seeded batch
//! of inserts and deletes from submitted to visible —
//! `DynamicClosure::apply`, `freeze`, `Service::publish` — on the file
//! backend; then one session answers a burst of requests against the new
//! epoch, starting with the rebind and a cold pool. Each burst request
//! is a query. A read-path gain that taxes writes, or the reverse, shows
//! here: both go through the same storage, buffer and reach layers.

use crate::common::{
    dir_bytes, generate_graph, graph_digest, input_seed, median_ns, ms, Ctx, Purpose, Tally,
};
use crate::oracle::ReplyOracle;
use crate::spans::Spans;
use crate::spec::Metrics;
use crate::stats::{highest_supported_pct, quantile};
use std::path::PathBuf;
use tc_study::graph::{Graph, NodeId, StreamKind, UpdateOp, UpdateStream};
use tc_study::serve::{LoopMode, MixSpec, QueryStream, Service, Session, SessionConfig};
use tc_study::storage::Backend;
use tc_study::trace::Fnv;
use tc_study::{DynamicClosure, SystemConfig};

/// Rounds whose page I/O and space are reported as exact counts.
pub const EXACT_ROUNDS: usize = 6;

/// What one executed round left behind for the check that follows the
/// measured section.
struct Executed {
    inserted: u64,
    removed: u64,
    reply_digests: Vec<u64>,
}

pub struct Updates {
    graph: Graph,
    dynamic: DynamicClosure,
    service: Service,
    session: Session,
    batches: Vec<Vec<UpdateOp>>,
    burst_len: usize,
    burst_seed: u64,
    store_dir: PathBuf,
    executed: Vec<Executed>,
    apply_ns: Vec<u64>,
    apply_io: u64,
    delta_tuples: u64,
    pub graph_digest: u64,
    pub stream_digest: u64,
}

/// The generated batches with every arc touched at most once per batch:
/// an arc inserted and then deleted again inside one batch (or the
/// reverse) nets to nothing and both ops are dropped; the graph after
/// each batch is the generator's own. `DynamicClosure::apply` at this
/// commit derives tuples from an arc that such a batch inserted and
/// deleted (seed 108, batch 35: two closure tuples too many), and a
/// benchmark runs only operations that succeed; see README.md.
fn net_batches(stream: &UpdateStream) -> Vec<Vec<UpdateOp>> {
    stream
        .batches()
        .iter()
        .map(|batch| {
            let touches = |arc| batch.iter().filter(|op| op.arc() == arc).count();
            let last = |i: usize, arc| !batch[i + 1..].iter().any(|op| op.arc() == arc);
            batch
                .iter()
                .enumerate()
                .filter(|(i, op)| touches(op.arc()) % 2 == 1 && last(*i, op.arc()))
                .map(|(_, op)| *op)
                .collect()
        })
        .collect()
}

fn update_digest(batches: &[Vec<UpdateOp>]) -> u64 {
    let mut h = Fnv::new();
    for batch in batches {
        h.u64(batch.len() as u64);
        for op in batch {
            let (u, v) = op.arc();
            h.bool(op.is_insert());
            h.u32(u);
            h.u32(v);
        }
    }
    h.finish()
}

impl Updates {
    pub fn setup(ctx: &Ctx, k: usize, sp: &mut Spans) -> Result<Updates, String> {
        let sizes = &ctx.sizes;
        let (graph, _) = sp.time("DagGenerator::generate", || generate_graph(ctx, k));
        let store_dir = ctx.work_dir.join(format!("dynamic-store-{k}"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let cfg = SystemConfig::with_buffer(20).backend(Backend::File {
            dir: Some(store_dir.clone()),
        });
        let (dynamic, _) = sp.time("DynamicClosure::build", || {
            DynamicClosure::build(&graph, &cfg)
        });
        let mut dynamic = dynamic.map_err(|e| e.to_string())?;
        let (snapshot, _) = sp.time("DynamicClosure::freeze", || dynamic.freeze(0));
        let service = Service::new(snapshot.map_err(|e| e.to_string())?);
        let (updates, _) = sp.time("UpdateStream::generate", || {
            UpdateStream::generate(
                &graph,
                StreamKind::Mixed,
                sizes.update_batches,
                sizes.update_batch_ops,
                sizes.update.graph.l,
                input_seed(ctx, Purpose::Updates, k as u64),
            )
        });
        let batches = net_batches(&updates);
        let session = Session::new(service.snapshot(), &SessionConfig::default(), 0);
        Ok(Updates {
            graph_digest: graph_digest(&graph),
            stream_digest: update_digest(&batches),
            graph,
            dynamic,
            service,
            session,
            batches,
            burst_len: sizes.update_burst,
            burst_seed: input_seed(ctx, Purpose::Bursts, k as u64),
            store_dir,
            executed: Vec::new(),
            apply_ns: Vec::new(),
            apply_io: 0,
            delta_tuples: 0,
        })
    }

    fn burst(&self, round: usize) -> QueryStream {
        QueryStream::generate(
            self.graph.n(),
            1,
            self.burst_len,
            MixSpec::MIXED,
            0.8,
            LoopMode::Closed,
            tc_study::det::cell_seed(self.burst_seed, &[round as u64]),
        )
    }

    /// Whether another batch is left to apply.
    pub fn has_round(&self) -> bool {
        self.executed.len() < self.batches.len()
    }

    pub fn measured_round(&mut self, sp: &mut Spans, t: &mut Tally) -> Result<(), String> {
        let i = self.executed.len();
        let batch = &self.batches[i];
        let burst = self.burst(i);

        let round = sp.enter("round");
        let (applied, apply_ns) = sp.time("DynamicClosure::apply", || self.dynamic.apply(batch));
        let applied = applied.map_err(|e| e.to_string())?;
        let (snapshot, _) = sp.time("DynamicClosure::freeze", || {
            self.dynamic.freeze(i as u64 + 1)
        });
        let snapshot = snapshot.map_err(|e| e.to_string())?;
        sp.time("Service::publish", || self.service.publish(snapshot));
        let round_ns = sp.exit(round);
        t.round_ns.push(round_ns);
        t.model_wall_ns += round_ns;
        self.apply_ns.push(apply_ns);

        // The read spike a publish causes: the session rebinds to the new
        // epoch on its first request and starts from a cold pool.
        let mut reply_digests = Vec::with_capacity(self.burst_len);
        for (k, req) in burst.client(0).iter().enumerate() {
            let request = sp.enter("burst request");
            if k == 0 {
                sp.time("Session::rebind", || {
                    self.session.rebind(self.service.snapshot())
                });
            } else {
                self.session.rebind(self.service.snapshot());
            }
            let reply = self.session.handle(req);
            let ns = sp.exit(request);
            reply_digests.push(reply.map_err(|e| e.to_string())?.digest());
            t.query_ns.push(ns);
            t.model_wall_ns += ns;
            t.handle_ns += ns;
        }
        t.check(self.session.epoch() == i as u64 + 1, || {
            format!("batch {i}: session epoch")
        });

        let burst_reads = self.session.pages_read();
        t.counts.add_run(&applied.metrics);
        t.counts.syncs += 1;
        t.counts.add_buffer(self.session.buffer_stats());
        t.counts.frozen_reads += burst_reads;
        t.work += batch.len() as u64;
        self.apply_io += applied.metrics.total_io();
        self.delta_tuples += applied.inserted + applied.removed;
        if i < EXACT_ROUNDS {
            t.page_io += applied.metrics.total_io() + burst_reads;
        }
        if i + 1 == EXACT_ROUNDS {
            let user_tuples = self.dynamic.graph().arc_count() + self.dynamic.tuple_count();
            t.bytes_stored = dir_bytes(&self.store_dir);
            t.space_amp = t.bytes_stored as f64 / (8.0 * user_tuples as f64);
        }
        self.executed.push(Executed {
            inserted: applied.inserted,
            removed: applied.removed,
            reply_digests,
        });
        Ok(())
    }

    /// Replays the executed batches on the in-memory oracle: every batch's
    /// `inserted`/`removed` counts, every burst reply, the final closure.
    pub fn verify(&mut self, t: &mut Tally) -> Result<(), String> {
        let mut live = self.graph.clone();
        let mut before = rows(&ReplyOracle::new(&live));
        for (i, done) in self.executed.iter().enumerate() {
            for op in &self.batches[i] {
                match *op {
                    UpdateOp::Insert(u, v) => live.add_arc(u, v),
                    UpdateOp::Delete(u, v) => live.remove_arc(u, v),
                };
            }
            let oracle = ReplyOracle::new(&live);
            let after = rows(&oracle);
            let (mut inserted, mut removed) = (0u64, 0u64);
            for (old, new) in before.iter().zip(&after) {
                inserted += new.iter().filter(|x| old.binary_search(x).is_err()).count() as u64;
                removed += old.iter().filter(|x| new.binary_search(x).is_err()).count() as u64;
            }
            t.check(inserted == done.inserted && removed == done.removed, || {
                format!(
                    "batch {i}: +{} -{} closure tuples, oracle +{inserted} -{removed}",
                    done.inserted, done.removed
                )
            });
            let burst = self.burst(i);
            for (req, got) in burst.client(0).iter().zip(&done.reply_digests) {
                t.check(oracle.reply(req).digest() == *got, || {
                    format!("batch {i}: {req:?}")
                });
            }
            before = after;
        }
        let expected: Vec<(NodeId, NodeId)> = before
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().map(move |&v| (u as NodeId, v)))
            .collect();
        let stored = self.dynamic.tuples().map_err(|e| e.to_string())?;
        t.check(stored == expected, || {
            "final closure differs from the oracle's".into()
        });
        Ok(())
    }

    pub fn layer_metrics(&mut self, sp: &Spans, traced: &Tally, m: &mut Metrics) {
        let rounds = self.executed.len().max(1) as f64;
        m.set("core.apply_ms", ms(median_ns(&self.apply_ns)));
        let hi = highest_supported_pct(self.apply_ns.len());
        m.set(
            "core.apply_hi_ms",
            ms(quantile(&mut self.apply_ns.clone(), hi)),
        );
        m.set("core.freeze_ms", sp.mean_ms("DynamicClosure::freeze"));
        m.set("core.apply_page_io", self.apply_io as f64 / rounds);
        m.set("core.delta_tuples", self.delta_tuples as f64 / rounds);
        m.set("serve.publish_us", sp.mean_ms("Service::publish") * 1e3);
        m.set("serve.rebind_us", sp.mean_ms("Session::rebind") * 1e3);
        m.set(
            "serve.pages_per_req",
            traced.counts.frozen_reads as f64 / traced.queries.max(1) as f64,
        );
        m.set("storage.bytes_on_disk", traced.bytes_stored as f64);
    }
}

/// The closure as one ascending successor row per node.
fn rows(oracle: &ReplyOracle) -> Vec<Vec<NodeId>> {
    let tc = oracle.closure();
    (0..tc.n() as NodeId).map(|u| tc.row_ones(u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_that_cancel_inside_a_batch_are_dropped() {
        use UpdateOp::{Delete, Insert};
        let g = Graph::from_arcs(6, [(0, 1), (1, 2), (2, 3)]);
        let stream = UpdateStream::generate(&g, StreamKind::Mixed, 40, 6, 3, 9);
        let net = net_batches(&stream);
        // The net batches lead through the same graphs as the generated ones.
        let (mut a, mut b) = (g.clone(), g.clone());
        let apply = |g: &mut Graph, op: &UpdateOp| match *op {
            Insert(u, v) => assert!(g.add_arc(u, v), "insert of a present arc"),
            Delete(u, v) => assert!(g.remove_arc(u, v), "delete of an absent arc"),
        };
        let mut dropped = 0;
        for (full, kept) in stream.batches().iter().zip(&net) {
            full.iter().for_each(|op| apply(&mut a, op));
            kept.iter().for_each(|op| apply(&mut b, op));
            assert_eq!(a, b);
            for op in kept {
                assert_eq!(kept.iter().filter(|o| o.arc() == op.arc()).count(), 1);
            }
            dropped += full.len() - kept.len();
        }
        assert!(dropped > 0, "the tiny graph must produce cancelling ops");
    }
}
