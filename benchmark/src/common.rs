//! What every workload shares: committed sizes, the seed discipline, the
//! tally a measured section fills, and small OS helpers.

use std::path::{Path, PathBuf};
use tc_study::buffer::BufferStats;
use tc_study::det::cell_seed;
use tc_study::graph::{DagGenerator, Graph, NodeId};
use tc_study::trace::Fnv;
use tc_study::CostMetrics;

/// `(n, F, l)` of a generated DAG (the paper's parameters).
#[derive(Clone, Copy, Debug)]
pub struct GraphSize {
    pub n: usize,
    pub f: f64,
    pub l: usize,
}

/// A workload's inputs: its graph family and how many instances of it
/// one run uses.
///
/// A seed gives `instances` independent graphs (and source sets, and
/// streams); rounds take them in turn, each timing is the mean over the
/// instances of the per-instance median, each count their mean.
/// Graph-to-graph differences (3 % of a closure round's page I/O, 8-9 %
/// of a serve pass's or an update stream's) would otherwise dominate the
/// seed-to-seed spread.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub graph: GraphSize,
    pub instances: usize,
}

/// Committed workload sizes. `full()` is what the benchmark measures;
/// `smoke()` runs the same code paths in seconds.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// closure_batch: G5, full closure with BTC, HYB, SPN at M = 20.
    pub closure: Shape,
    pub closure_m: usize,
    /// selective_file: G8 on the file backend, 100 sources, M = 10.
    pub select: Shape,
    pub select_m: usize,
    pub select_sources: usize,
    /// serve_*: G5 snapshot, closed-loop stream of `clients` queues.
    pub serve: Shape,
    pub serve_clients: usize,
    pub serve_per_client: usize,
    /// update_publish: file backend, mixed batches, a burst per epoch.
    pub update: Shape,
    pub update_batches: usize,
    pub update_batch_ops: usize,
    pub update_burst: usize,
    /// Set-ups per run, at least; `setup_s` is their median. A cheap
    /// set-up is repeated until `setup_min_s` seconds have gone into it
    /// (at most `5 * setup_reps` times), so its median is as steady as an
    /// expensive one's.
    pub setup_reps: usize,
    pub setup_min_s: f64,
    /// Wall time given to each unit-cost probe, in milliseconds.
    pub probe_ms: u64,
    /// Requests per open-loop rate step.
    pub open_requests: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        let shape = |n, f, l, instances| Shape {
            graph: GraphSize { n, f, l },
            instances,
        };
        Sizes {
            closure: shape(2000, 5.0, 200, 4),
            closure_m: 20,
            select: shape(2000, 20.0, 200, 4),
            select_m: 10,
            select_sources: 100,
            serve: shape(2000, 5.0, 200, 9),
            serve_clients: 2,
            serve_per_client: 20_000,
            update: shape(1000, 5.0, 200, 7),
            update_batches: 256,
            update_batch_ops: 16,
            update_burst: 4_000,
            setup_reps: 3,
            setup_min_s: 3.0,
            probe_ms: 100,
            open_requests: 20_000,
        }
    }

    pub fn smoke() -> Sizes {
        let shape = |n, f, l| Shape {
            graph: GraphSize { n, f, l },
            instances: 2,
        };
        Sizes {
            closure: shape(300, 3.0, 60),
            closure_m: 20,
            select: shape(300, 6.0, 60),
            select_m: 10,
            select_sources: 20,
            serve: shape(300, 3.0, 60),
            serve_clients: 4,
            serve_per_client: 400,
            update: shape(200, 3.0, 40),
            update_batches: 64,
            update_batch_ops: 8,
            update_burst: 200,
            setup_reps: 2,
            setup_min_s: 0.0,
            probe_ms: 5,
            open_requests: 500,
        }
    }
}

/// One run's parameters.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch directory inside the checkout; removed when the run ends.
    pub work_dir: PathBuf,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// The inputs of this run's workload.
    pub fn shape(&self) -> Shape {
        match self.workload.as_str() {
            "closure_batch" => self.sizes.closure,
            "selective_file" => self.sizes.select,
            "update_publish" => self.sizes.update,
            _ => self.sizes.serve,
        }
    }
}

/// What a seed is spent on. Every random input of workload `w` draws
/// from `cell_seed(seed, [w, purpose, index])`, so inputs never share a
/// stream and adding a workload changes no other workload's inputs.
/// (`serve_resident` deliberately draws `serve_cold`'s inputs.)
#[derive(Clone, Copy)]
pub enum Purpose {
    Graph = 0,
    Sources = 1,
    Queries = 2,
    Updates = 3,
    Bursts = 4,
    OpenLoop = 5,
}

pub fn input_seed(ctx: &Ctx, purpose: Purpose, index: u64) -> u64 {
    // The two serve workloads differ only in session shape: same
    // snapshot, same stream.
    let name = match ctx.workload.as_str() {
        "serve_resident" => "serve_cold",
        other => other,
    };
    let w = crate::spec::WORKLOADS
        .iter()
        .position(|n| *n == name)
        .unwrap_or(crate::spec::WORKLOADS.len()) as u64;
    cell_seed(ctx.seed, &[w, purpose as u64, index])
}

/// The `instance`-th graph the seed gives this run's workload.
pub fn generate_graph(ctx: &Ctx, instance: usize) -> Graph {
    let size = ctx.shape().graph;
    DagGenerator::new(size.n, size.f, size.l)
        .seed(input_seed(ctx, Purpose::Graph, instance as u64))
        .generate()
}

/// FNV-1a digest of a graph's arc list.
pub fn graph_digest(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.u64(g.n() as u64);
    for (u, v) in g.arcs() {
        h.u32(u);
        h.u32(v);
    }
    h.finish()
}

/// FNV-1a digest of an answer (sorted `(source, successor)` tuples).
pub fn answer_digest(pairs: &[(NodeId, NodeId)]) -> u64 {
    let mut h = Fnv::new();
    h.u64(pairs.len() as u64);
    for &(u, v) in pairs {
        h.u32(u);
        h.u32(v);
    }
    h.finish()
}

/// Layer counts the program's calls return, summed over a measured
/// section. Exact for a seed.
#[derive(Default)]
pub struct Counts {
    pub buf_requests: u64,
    pub buf_hits: u64,
    pub buf_misses: u64,
    pub evictions: u64,
    pub dirty_writebacks: u64,
    pub reads: u64,
    pub writes: u64,
    /// Reads of frozen snapshot pages by serving sessions.
    pub frozen_reads: u64,
    pub syncs: u64,
    pub tuples_generated: u64,
    pub duplicates: u64,
    pub unions: u64,
    pub list_fetches: u64,
    pub tuple_reads: u64,
    pub tuple_writes: u64,
    pub arcs_processed: u64,
}

impl Counts {
    pub fn absorb(&mut self, o: &Counts) {
        self.buf_requests += o.buf_requests;
        self.buf_hits += o.buf_hits;
        self.buf_misses += o.buf_misses;
        self.evictions += o.evictions;
        self.dirty_writebacks += o.dirty_writebacks;
        self.reads += o.reads;
        self.writes += o.writes;
        self.frozen_reads += o.frozen_reads;
        self.syncs += o.syncs;
        self.tuples_generated += o.tuples_generated;
        self.duplicates += o.duplicates;
        self.unions += o.unions;
        self.list_fetches += o.list_fetches;
        self.tuple_reads += o.tuple_reads;
        self.tuple_writes += o.tuple_writes;
        self.arcs_processed += o.arcs_processed;
    }

    pub fn add_buffer(&mut self, b: &BufferStats) {
        self.buf_requests += b.requests;
        self.buf_hits += b.hits;
        self.buf_misses += b.misses;
        self.evictions += b.evictions;
        self.dirty_writebacks += b.dirty_writebacks;
    }

    /// Folds in one engine or maintenance run.
    pub fn add_run(&mut self, m: &CostMetrics) {
        self.add_buffer(&m.buffer);
        self.reads += m.restructure_io.reads + m.compute_io.reads;
        self.writes += m.restructure_io.writes + m.compute_io.writes;
        self.tuples_generated += m.tuples_generated;
        self.duplicates += m.duplicates;
        self.unions += m.unions;
        self.list_fetches += m.list_fetches;
        self.tuple_reads += m.tuple_reads;
        self.tuple_writes += m.tuple_writes;
        self.arcs_processed += m.arcs_processed;
    }
}

/// What a measured section adds up. Rounds and queries are defined per
/// workload (README.md): a round is one pass of the workload's loop, a
/// query one request the program answers inside it.
#[derive(Default)]
pub struct Tally {
    pub round_ns: Vec<u64>,
    /// Queries of the round in progress; the run loop reduces them to
    /// quantiles and empties the list when the round ends.
    pub query_ns: Vec<u64>,
    /// Queries of all finished rounds.
    pub queries: u64,
    /// Units of useful work done (answer tuples, replies, update ops).
    pub work: u64,
    /// Operations whose output was checked, and those found wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Pages read + written in the first `EXACT_ROUNDS` rounds.
    pub page_io: u64,
    /// Bytes stored ÷ (8 × user tuples) after the same rounds.
    pub space_amp: f64,
    pub bytes_stored: u64,
    pub counts: Counts,
    /// Wall time the counts were gathered over (the cost model's base).
    pub model_wall_ns: u64,
    /// Serving only: time inside `Session::handle`, to split dispatch off.
    pub handle_ns: u64,
}

impl Tally {
    /// Adds another instance's tally to this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.round_ns.extend(&other.round_ns);
        self.queries += other.queries;
        self.work += other.work;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.page_io += other.page_io;
        self.bytes_stored = self.bytes_stored.max(other.bytes_stored);
        self.counts.absorb(&other.counts);
        self.model_wall_ns += other.model_wall_ns;
        self.handle_ns += other.handle_ns;
    }

    /// Records one checked operation; the first few failures are named
    /// on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("wrong output: {}", what());
            }
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Mean of `ns` samples in milliseconds (0 when empty).
pub fn mean_ms(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e6
    }
}

pub fn median_ns(samples: &[u64]) -> u64 {
    crate::stats::quantile(&mut samples.to_vec(), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_answer_counts_as_failed() {
        let right = vec![(0, 1), (0, 2), (1, 2)];
        let mut wrong = right.clone();
        wrong[2] = (1, 3);
        let expected = answer_digest(&right);
        let mut t = Tally::default();
        t.check(answer_digest(&right) == expected, || "right".into());
        t.check(answer_digest(&wrong) == expected, || {
            "a changed tuple".into()
        });
        t.check(answer_digest(&right[..2]) == expected, || {
            "a missing tuple".into()
        });
        assert_eq!((t.attempted, t.failed), (3, 2));
    }

    #[test]
    fn rss_and_dir_size_read_something() {
        assert!(peak_rss_mb() > 0.0);
        let dir = std::env::temp_dir().join(format!("tc-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("b"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(&dir), 15);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
