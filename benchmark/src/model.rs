//! The cost model: count × unit cost per layer, held against the wall
//! time the counts were gathered over. What the model cannot place is
//! the residual, and it is reported, not hidden.

use crate::common::Tally;
use crate::probe::UnitCosts;
use crate::spec::Metrics;

/// Which store the engine's (or the maintenance run's) page I/O hits.
#[derive(Clone, Copy, PartialEq)]
pub enum StoreKind {
    Sim,
    File,
    /// Serving only: every read is a frozen-page read.
    None,
}

pub fn shares(t: &Tally, u: &UnitCosts, store: StoreKind, trace_events: f64, m: &mut Metrics) {
    let wall = t.model_wall_ns as f64;
    if wall <= 0.0 {
        return;
    }
    let c = &t.counts;
    // The probes time a miss and a dirty eviction on the simulated disk,
    // transfers included; the pool's own share is what is left.
    let miss_self = (u.miss - u.sim_read).max(0.0);
    let writeback_self = (u.dirty_evict - u.miss - u.sim_write).max(0.0);
    let buffer = c.buf_hits as f64 * u.hit
        + c.buf_misses as f64 * miss_self
        + c.dirty_writebacks as f64 * writeback_self;
    let (read, write, sync) = match store {
        StoreKind::Sim => (u.sim_read, u.sim_write, 0.0),
        StoreKind::File => (u.file_read, u.file_write, u.file_sync),
        StoreKind::None => (0.0, 0.0, 0.0),
    };
    let storage = c.reads as f64 * read
        + c.writes as f64 * write
        + c.syncs as f64 * sync
        + c.frozen_reads as f64 * u.frozen_read;
    let succ = c.tuple_writes as f64 * u.append_self
        + c.tuple_reads as f64 * u.scan_self
        + (c.tuples_generated + c.duplicates) as f64 * u.bitvec;
    let trace = trace_events * u.emit_off;
    let dispatch = if t.handle_ns > 0 && store == StoreKind::None {
        (wall - t.handle_ns as f64).max(0.0)
    } else {
        0.0
    };
    let placed = buffer + storage + succ + trace + dispatch;
    m.set("model.buffer_share", buffer / wall);
    m.set("model.storage_share", storage / wall);
    m.set("model.succ_share", succ / wall);
    m.set("model.trace_share", trace / wall);
    m.set("model.dispatch_share", dispatch / wall);
    m.set("model.residual_share", (wall - placed) / wall);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_add_up_to_one() {
        let mut t = Tally {
            model_wall_ns: 1_000_000,
            ..Tally::default()
        };
        t.counts.buf_hits = 1000;
        t.counts.buf_misses = 10;
        t.counts.reads = 10;
        t.counts.tuple_writes = 500;
        let u = UnitCosts {
            hit: 100.0,
            miss: 1500.0,
            sim_read: 500.0,
            append_self: 200.0,
            ..UnitCosts::default()
        };
        let mut m = Metrics::default();
        shares(&t, &u, StoreKind::Sim, 0.0, &mut m);
        assert!((m.get("model.buffer_share") - 0.11).abs() < 1e-9);
        assert!((m.get("model.storage_share") - 0.005).abs() < 1e-9);
        assert!((m.get("model.succ_share") - 0.1).abs() < 1e-9);
        let total: f64 = ["buffer", "storage", "succ", "trace", "dispatch", "residual"]
            .iter()
            .map(|l| m.get(&format!("model.{l}_share")))
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
