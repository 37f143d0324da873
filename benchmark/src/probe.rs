//! `layer_probe`: each substrate call timed in isolation, for the unit
//! costs the cost model multiplies the counts by. Every probe is
//! time-boxed (`Sizes::probe_ms`), so a cheap call is made millions of
//! times and a file write a few thousand.

use crate::common::Ctx;
use crate::spec::Metrics;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tc_study::buffer::{BufferPool, PagePolicy};
use tc_study::graph::{Graph, NodeId};
use tc_study::obs::{LatencyHistogram, SpanRecorder};
use tc_study::profile::ProfileFold;
use tc_study::reach::{NullMeter, ReachIndex};
use tc_study::storage::{
    DiskSim, FileId, FileKind, FileStore, FrozenPageSet, FrozenStore, Page, PageId, PageStore,
    Pager,
};
use tc_study::succ::{ListCursor, ListPolicy, NodeBitVec, SuccStore};
use tc_study::trace::{DigestSink, Event, JsonlSink, Tracer};

/// Runs `batch` (which returns how many operations it made) until the
/// budget is spent, and returns nanoseconds per operation.
fn per_op(budget: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut ops = 0u64;
    loop {
        ops += batch();
        let spent = start.elapsed();
        if spent >= budget {
            return spent.as_nanos() as f64 / ops.max(1) as f64;
        }
    }
}

fn filled(store: &mut dyn PageStore, pages: usize) -> (FileId, Vec<PageId>) {
    let file = store.new_file(FileKind::Temp);
    let mut page = Page::new();
    let pids = (0..pages)
        .map(|i| {
            let pid = store.alloc(file).expect("probe alloc");
            page.put_u32(0, i as u32);
            store.write_page(pid, &page).expect("probe write");
            pid
        })
        .collect();
    (file, pids)
}

/// Read and write cost of one page on `store`, over `pages` pages.
fn store_rw(budget: Duration, store: &mut dyn PageStore, pids: &[PageId]) -> (f64, f64) {
    let mut page = Page::new();
    let read = per_op(budget, || {
        for &pid in pids {
            store.read_page(pid, &mut page).expect("probe read");
        }
        std::hint::black_box(page.get_u32(0));
        pids.len() as u64
    });
    let write = per_op(budget, || {
        for &pid in pids {
            store.write_page(pid, &page).expect("probe write");
        }
        pids.len() as u64
    });
    (read, write)
}

/// Unit costs kept for the cost model, in nanoseconds.
#[derive(Default, Debug)]
pub struct UnitCosts {
    pub hit: f64,
    pub miss: f64,
    pub dirty_evict: f64,
    pub sim_read: f64,
    pub sim_write: f64,
    pub file_read: f64,
    pub file_write: f64,
    pub file_sync: f64,
    pub frozen_read: f64,
    /// `append_flat` and a cursor step, net of their buffer hits.
    pub append_self: f64,
    pub scan_self: f64,
    pub bitvec: f64,
    pub emit_off: f64,
}

pub fn run(ctx: &Ctx, graph: &Graph, m: &mut Metrics) -> Result<UnitCosts, String> {
    let budget = Duration::from_millis(ctx.sizes.probe_ms);
    let mut u = UnitCosts::default();

    m.set(
        "bench.clock_ns",
        per_op(budget, || {
            for _ in 0..1000 {
                std::hint::black_box(Instant::now());
            }
            1000
        }),
    );

    // ---- storage
    {
        let mut sim = DiskSim::new();
        let (_, pids) = filled(&mut sim, 256);
        (u.sim_read, u.sim_write) = store_rw(budget, &mut sim, &pids);
        m.set("storage.sim_read_ns", u.sim_read);
        m.set("storage.sim_write_ns", u.sim_write);
        let alloc = per_op(budget, || {
            let f = sim.new_file(FileKind::Temp);
            for _ in 0..1024 {
                sim.alloc(f).expect("probe alloc");
            }
            sim.drop_file(f).expect("probe drop");
            1024
        });
        m.set("storage.alloc_ns", alloc);

        let mut source = DiskSim::new();
        let (file, pids) = filled(&mut source, 256);
        let set = FrozenPageSet::capture(&mut source, &[file]).map_err(|e| e.to_string())?;
        let mut frozen = FrozenStore::new(Arc::new(set));
        let mut page = Page::new();
        u.frozen_read = per_op(budget, || {
            for &pid in &pids {
                frozen.read_page(pid, &mut page).expect("probe read");
            }
            pids.len() as u64
        });
        m.set("storage.frozen_read_ns", u.frozen_read);
    }
    {
        let dir = ctx.work_dir.join("probe-store");
        let _ = std::fs::remove_dir_all(&dir);
        let mut file = FileStore::create(&dir).map_err(|e| e.to_string())?;
        let (_, pids) = filled(&mut file, 256);
        (u.file_read, u.file_write) = store_rw(budget, &mut file, &pids);
        m.set("storage.file_read_ns", u.file_read);
        m.set("storage.file_write_ns", u.file_write);
        // A sync with 64 rewritten pages behind it.
        let page = Page::new();
        let mut sync_ns = 0u64;
        let mut syncs = 0u64;
        let start = Instant::now();
        while start.elapsed() < budget || syncs == 0 {
            for &pid in &pids[..64] {
                file.write_page(pid, &page).map_err(|e| e.to_string())?;
            }
            let t0 = Instant::now();
            file.sync().map_err(|e| e.to_string())?;
            sync_ns += t0.elapsed().as_nanos() as u64;
            syncs += 1;
        }
        u.file_sync = sync_ns as f64 / syncs as f64;
        m.set("storage.file_sync_ms", u.file_sync / 1e6);
        drop(file);
        let open = per_op(budget, || {
            std::hint::black_box(FileStore::open(&dir).expect("probe open").page_count());
            1
        });
        m.set("storage.file_open_ms", open / 1e6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- buffer
    {
        let mut sim = DiskSim::new();
        let (_, pids) = filled(&mut sim, 200);
        let mut pool = BufferPool::new(sim, 50, PagePolicy::Lru);
        pool.with_page(pids[0], &mut |_p: &Page| ())
            .map_err(|e| e.to_string())?;
        u.hit = per_op(budget, || {
            for _ in 0..1000 {
                std::hint::black_box(
                    pool.with_page(pids[0], &mut |p: &Page| p.get_u32(0))
                        .expect("hit"),
                );
            }
            1000
        });
        // 200 pages through 50 frames under LRU: every request misses.
        u.miss = per_op(budget, || {
            for &pid in &pids {
                pool.with_page(pid, &mut |p: &Page| p.get_u32(0))
                    .expect("miss");
            }
            pids.len() as u64
        });
        u.dirty_evict = per_op(budget, || {
            for &pid in &pids {
                pool.with_page_mut(pid, &mut |p: &mut Page| p.put_u32(4, 1))
                    .expect("miss");
            }
            pids.len() as u64
        });
        m.set("buffer.hit_ns", u.hit);
        m.set("buffer.miss_ns", u.miss);
        m.set("buffer.dirty_evict_ns", u.dirty_evict);
    }

    // ---- succ (through a pool large enough that every page access hits)
    {
        let mut pool = BufferPool::new(DiskSim::new(), 4096, PagePolicy::Lru);
        let mut store = SuccStore::new(&mut pool, 64, ListPolicy::MoveShortest);
        let mut next = 0u32;
        let mut appended = 0u64;
        let requests_before = pool.stats().requests;
        // Bounded so the lists stay within the pool.
        let append = per_op(budget.min(Duration::from_millis(20)), || {
            for _ in 0..1000 {
                store
                    .append_flat(&mut pool, next % 64, next)
                    .expect("append");
                next += 1;
            }
            appended += 1000;
            1000
        });
        let per_append = (pool.stats().requests - requests_before) as f64 / appended as f64;
        m.set("succ.append_ns", append);
        u.append_self = (append - per_append * u.hit).max(0.0);

        let requests_before = pool.stats().requests;
        let mut scanned = 0u64;
        let scan = per_op(budget, || {
            let mut entries = 0;
            for node in 0..64 {
                let list = ListCursor::new(&store, node)
                    .collect_entries(&mut pool)
                    .expect("scan");
                entries += list.len() as u64;
            }
            scanned += entries;
            entries
        });
        let per_entry = (pool.stats().requests - requests_before) as f64 / scanned.max(1) as f64;
        m.set("succ.scan_ns", scan);
        u.scan_self = (scan - per_entry * u.hit).max(0.0);

        let mut bits = NodeBitVec::new(2000);
        u.bitvec = per_op(budget, || {
            let mut n = 0;
            for v in (0..2000u32).step_by(3) {
                std::hint::black_box(bits.insert(v));
                n += 1;
            }
            bits.clear_fast();
            n
        });
        m.set("succ.bitvec_ns", u.bitvec);
    }

    // ---- reach, on this workload's graph
    {
        let mut pool = BufferPool::new(DiskSim::new(), 4096, PagePolicy::Lru);
        let t0 = Instant::now();
        let index = ReachIndex::build(&mut pool, graph, &Tracer::disabled(), &mut NullMeter)
            .map_err(|e| e.to_string())?;
        m.set("reach.build_ms", t0.elapsed().as_nanos() as f64 / 1e6);
        m.set("reach.width", index.width() as f64);
        let n = graph.n() as NodeId;
        let pairs: Vec<(NodeId, NodeId)> = (0..1000u32)
            .map(|i| ((i * 7) % n, (i * 13 + 5) % n))
            .collect();
        let lookup = per_op(budget, || {
            for &(a, b) in &pairs {
                std::hint::black_box(index.reach(&mut pool, a, b).expect("reach"));
            }
            pairs.len() as u64
        });
        let mem = per_op(budget, || {
            for &(a, b) in &pairs {
                std::hint::black_box(index.reach_mem(a, b));
            }
            pairs.len() as u64
        });
        m.set("reach.lookup_ns", lookup);
        m.set("reach.mem_lookup_ns", mem);
    }

    // ---- trace, profile, obs
    {
        let emit = |tracer: &Tracer| {
            per_op(budget, || {
                for _ in 0..1000 {
                    std::hint::black_box(tracer).emit(Event::Union);
                }
                1000
            })
        };
        u.emit_off = emit(&Tracer::disabled());
        m.set("trace.emit_off_ns", u.emit_off);
        m.set(
            "trace.emit_digest_ns",
            emit(&Tracer::new(Arc::new(DigestSink::new()))),
        );
        m.set(
            "trace.emit_jsonl_ns",
            emit(&Tracer::new(Arc::new(JsonlSink::new(std::io::sink())))),
        );
        let mut fold = ProfileFold::new();
        m.set(
            "profile.fold_ns",
            per_op(budget, || {
                for _ in 0..500 {
                    fold.push(Event::Union);
                    fold.push(Event::ListFetch);
                }
                1000
            }),
        );
        let (recorder, _collector) = SpanRecorder::collecting();
        m.set(
            "obs.span_ns",
            per_op(budget, || {
                for _ in 0..1000 {
                    drop(recorder.enter("probe"));
                }
                1000
            }),
        );
        let mut hist = LatencyHistogram::new();
        let mut v = 1u64;
        m.set(
            "obs.hist_record_ns",
            per_op(budget, || {
                for _ in 0..1000 {
                    v = v
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    hist.record(v >> 40);
                }
                1000
            }),
        );
        std::hint::black_box(hist.count());
    }
    Ok(u)
}
