//! One module per table/figure of the paper's evaluation section, plus
//! the cell grid they all run on.
//!
//! Every module exposes `run(&ExpOpts) -> ExpResult<String>`, returning a
//! markdown report fragment with the paper's expectation stated next to
//! the measured numbers, so `section all` can assemble the full
//! EXPERIMENTS.md.
//!
//! # The cell model
//!
//! The evaluation is an embarrassingly parallel grid: every data point
//! is an average over independent *cells*, where one cell is one
//! execution on a fresh [`Database`] — coordinates (family, instance,
//! source set, algorithm, query, config). Sections declare their cells
//! through a [`Grid`], [`run_cells`] executes them on `tc-det`'s one
//! worker pool ([`tc_det::run_indexed`]) across [`ExpOpts::jobs`]
//! workers, and results come back in canonical cell order. Because each
//! cell is a pure function of its coordinates (workload seeds follow
//! `tc-det`'s cell-seeding convention; nothing reads the clock or the
//! scheduling order), every report fragment is **byte-identical** at
//! any worker count. `tests/parallel_determinism.rs`
//! and `gate.sh full parallel-matrix` hold us to that.

pub mod ablations;
pub mod advisor;
pub mod fig13;
pub mod fig14;
pub mod fig6;
pub mod fig7;
pub mod highsel;
pub mod predictiveness;
pub mod reachindex;
pub mod related;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod updates;

use crate::avg::AvgMetrics;
use crate::corpus::{build_graph, source_set, GraphFamily, FAMILIES};
use crate::opts::ExpOpts;
use std::fmt;
use std::fs;
use std::io::BufWriter;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use tc_core::prelude::*;
use tc_core::CostMetrics;
use tc_graph::{
    closure, model, transitive_reduction, ArcLocalityStats, RectangleModel, StreamKind, UpdateOp,
    UpdateStream,
};
use tc_obs::SpanRecorder;
use tc_storage::StorageError;
use tc_trace::{JsonlSink, Tracer};

/// Which query an experiment runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuerySpec {
    /// Full transitive closure.
    Full,
    /// Partial closure with `s` sources.
    Ptc(usize),
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuerySpec::Full => write!(f, "full"),
            QuerySpec::Ptc(s) => write!(f, "ptc({s})"),
        }
    }
}

/// A typed experiment failure: the first failing cell aborts the sweep
/// with its coordinates attached, instead of panicking inside (and
/// poisoning) a worker thread.
#[derive(Clone, Debug, PartialEq)]
pub enum ExpError {
    /// A cell's database build or query run failed.
    Cell {
        /// Family name (`"G5"`).
        fam: &'static str,
        /// Instance coordinate.
        instance: u64,
        /// Source-set coordinate.
        set: u64,
        /// Algorithm of the failing run (`None` for analysis cells).
        algorithm: Option<Algorithm>,
        /// Query of the failing run (`None` for analysis cells).
        query: Option<QuerySpec>,
        /// The underlying storage error.
        source: StorageError,
    },
    /// An internal scheduler/section invariant failed (a harness bug,
    /// reported as a typed error so sweeps still shut down cleanly).
    Internal(String),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::Cell {
                fam,
                instance,
                set,
                algorithm,
                query,
                source,
            } => {
                write!(f, "cell {fam}/i{instance}/s{set}")?;
                if let Some(a) = algorithm {
                    write!(f, "/{}", a.name())?;
                }
                if let Some(q) = query {
                    write!(f, "/{q}")?;
                }
                write!(f, " failed: {source}")
            }
            ExpError::Internal(msg) => write!(f, "experiment harness invariant: {msg}"),
        }
    }
}

impl std::error::Error for ExpError {}

/// Result alias for experiment sections and the scheduler.
pub type ExpResult<T> = Result<T, ExpError>;

/// What one cell computes.
#[derive(Clone, Debug)]
pub enum CellTask {
    /// One query execution on a fresh [`Database`].
    Query {
        /// Algorithm under test.
        algorithm: Algorithm,
        /// Full or partial closure.
        query: QuerySpec,
        /// System parameters of the run.
        cfg: SystemConfig,
    },
    /// Table 2 graph statistics (includes the reference closure — the
    /// expensive analysis).
    Stats,
    /// Rectangle model only (cheap shape probe for Table 4 / advisor).
    Shape,
    /// A dynamic-maintenance run: materialize the closure, then apply a
    /// seeded update stream batch by batch, measuring incremental
    /// maintenance I/O against a from-scratch recompute after each batch.
    Updates {
        /// Churn profile of the generated stream.
        kind: StreamKind,
        /// Number of update batches.
        batches: usize,
        /// Operations per batch.
        batch_size: usize,
        /// System parameters of every maintenance and recompute run.
        cfg: SystemConfig,
    },
}

/// One schedulable unit: coordinates plus a task. Cells are independent
/// by construction — a fresh simulated disk per query, per-cell seeds —
/// so the scheduler may run them in any order on any thread.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Graph family.
    pub fam: &'static GraphFamily,
    /// Instance coordinate (selects the generation seed).
    pub instance: u64,
    /// Source-set coordinate (selects the source-set stream; 0 for full
    /// closure and analysis cells).
    pub set: u64,
    /// The work to do at these coordinates.
    pub task: CellTask,
}

/// Stream constant for [`Cell::seed`] (the workspace's `tc-det` base
/// seed, see `crates/det`).
const CELL_STREAM: u64 = 0xDA12_1994;

impl Cell {
    /// The cell's canonical `tc-det` seed: a pure function of its
    /// coordinates (family index, instance, set, task discriminant),
    /// independent of scheduling order and worker count. Any randomness
    /// a cell ever consumes (e.g. a per-cell fault plan) must derive
    /// from this via [`tc_det::Rng::from_seed`], per the cell-seeding
    /// convention documented in `tc-det`.
    pub fn seed(&self) -> u64 {
        let fam_idx = FAMILIES
            .iter()
            .position(|f| f.name == self.fam.name)
            .unwrap_or(FAMILIES.len()) as u64;
        let task = match &self.task {
            CellTask::Query {
                algorithm, query, ..
            } => {
                let q = match query {
                    QuerySpec::Full => 0u64,
                    QuerySpec::Ptc(s) => 1 + *s as u64,
                };
                (1u64 << 32) | ((*algorithm as u64) << 16) | q
            }
            CellTask::Stats => 2 << 32,
            CellTask::Shape => 3 << 32,
            CellTask::Updates {
                kind,
                batches,
                batch_size,
                ..
            } => {
                let k = StreamKind::ALL.iter().position(|s| s == kind).unwrap_or(0) as u64;
                (4u64 << 32)
                    | (k << 16)
                    | ((*batches as u64 & 0xFF) << 8)
                    | (*batch_size as u64 & 0xFF)
            }
        };
        tc_det::cell_seed(CELL_STREAM, &[fam_idx, self.instance, self.set, task])
    }

    /// Canonical wall-clock span-tree file name for this cell at
    /// canonical index `i`: the trace name with `.jsonl` replaced by
    /// `.spans.json`, so a cell's timing file sorts with its trace.
    /// Unlike the trace, its *contents* are measured times — never
    /// byte-stable, never gating.
    fn timing_file_name(&self, i: usize) -> String {
        let name = self.trace_file_name(i);
        format!("{}.spans.json", name.trim_end_matches(".jsonl"))
    }

    /// Canonical trace file name for this cell at canonical index `i`.
    ///
    /// The index prefix disambiguates sweeps that revisit the same
    /// coordinates under different configs (e.g. fig6's buffer-size
    /// sweep); the coordinate suffix keeps the file human-findable.
    pub fn trace_file_name(&self, i: usize) -> String {
        let task = match &self.task {
            CellTask::Query {
                algorithm, query, ..
            } => match query {
                QuerySpec::Full => format!("{}-full", algorithm.name()),
                QuerySpec::Ptc(s) => format!("{}-ptc{s}", algorithm.name()),
            },
            CellTask::Stats => "stats".to_string(),
            CellTask::Shape => "shape".to_string(),
            CellTask::Updates {
                kind,
                batches,
                batch_size,
                ..
            } => format!("updates-{}-b{batches}x{batch_size}", kind.name()),
        };
        format!(
            "{i:04}-{}-i{}-s{}-{task}.jsonl",
            self.fam.name, self.instance, self.set
        )
    }

    /// Executes the cell, returning its output or a typed error naming
    /// these coordinates, with the run's event stream routed through
    /// `tracer` and a wall-clock [`SpanRecorder`] armed alongside it
    /// (pass [`Tracer::disabled`] / [`SpanRecorder::disabled`] for a
    /// plain run). Query cells arm both on their [`SystemConfig`];
    /// analysis cells (`Stats`/`Shape`) run no engine and emit nothing.
    /// The recorder captures the engine's phase spans (`run` →
    /// `restructure`/`compute`/…); it reads the clock but writes nothing
    /// any gated output ever sees, so the returned [`CellOutput`] — and
    /// every trace byte — is identical whether it is armed or not.
    pub fn execute(&self, tracer: Tracer, obs: SpanRecorder) -> ExpResult<CellOutput> {
        match &self.task {
            CellTask::Query {
                algorithm,
                query,
                cfg,
            } => {
                let graph = build_graph(self.fam, self.instance);
                let mut db = Database::build_for(&graph, algorithm.needs_inverse(), cfg)
                    .map_err(|e| self.error(e))?;
                let q = match query {
                    QuerySpec::Full => Query::full(),
                    QuerySpec::Ptc(s) => Query::partial(source_set(*s, self.instance, self.set)),
                };
                let cfg = cfg.clone().traced(tracer).observed(obs);
                let result = db.run(&q, *algorithm, &cfg).map_err(|e| self.error(e))?;
                Ok(CellOutput::Metrics(Box::new(result.metrics)))
            }
            CellTask::Stats => {
                let g = build_graph(self.fam, self.instance);
                let levels = model::node_levels(&g);
                let rect = RectangleModel::with_levels(&g, &levels);
                let tr = transitive_reduction(&g);
                let loc = ArcLocalityStats::with_parts(&g, &tr, &levels);
                let cl = closure::dfs_closure(&g);
                Ok(CellOutput::Stats(Box::new(GraphStats {
                    arcs: g.arc_count() as u64,
                    max_level: rect.max_level,
                    height: rect.height,
                    width: rect.width,
                    avg_loc: loc.avg_all,
                    avg_irr: loc.avg_irredundant,
                    tc_pairs: cl.pair_count() as u64,
                })))
            }
            CellTask::Shape => {
                let g = build_graph(self.fam, self.instance);
                Ok(CellOutput::Shape(Box::new(RectangleModel::of(&g))))
            }
            CellTask::Updates {
                kind,
                batches,
                batch_size,
                cfg,
            } => {
                let graph = build_graph(self.fam, self.instance);
                // Stream randomness derives from the cell seed per the
                // cell-seeding convention; locality mirrors the family's
                // generation locality `l`.
                let stream = UpdateStream::generate(
                    &graph,
                    *kind,
                    *batches,
                    *batch_size,
                    self.fam.l,
                    self.seed(),
                );
                // Incremental side: one closure instance, maintained
                // batch by batch, each apply traced into the cell's sink.
                let inc_cfg = cfg.clone().traced(tracer).observed(obs);
                let mut dyn_tc =
                    DynamicClosure::build(&graph, &inc_cfg).map_err(|e| self.error(e))?;
                // Scratch side: an untraced full Seminaive recompute of
                // the mutated graph after every batch, so the cell's
                // trace describes exactly the incremental maintenance.
                let mut live = graph;
                let mut per_batch = Vec::with_capacity(stream.batches().len());
                for batch in stream.batches() {
                    for op in batch {
                        match *op {
                            UpdateOp::Insert(u, v) => live.add_arc(u, v),
                            UpdateOp::Delete(u, v) => live.remove_arc(u, v),
                        };
                    }
                    // The generated stream keeps the graph acyclic, so
                    // a rejected batch is a harness bug, not a cell error.
                    let res = dyn_tc.apply(batch).map_err(|e| match e {
                        UpdateError::Storage(e) => self.error(e),
                        rejected => ExpError::Internal(rejected.to_string()),
                    })?;
                    let mut db =
                        Database::build_for(&live, Algorithm::Seminaive.needs_inverse(), cfg)
                            .map_err(|e| self.error(e))?;
                    let scratch = db
                        .run(&Query::full(), Algorithm::Seminaive, cfg)
                        .map_err(|e| self.error(e))?;
                    per_batch.push(BatchPoint {
                        ops: batch.len() as u64,
                        inserted: res.inserted,
                        removed: res.removed,
                        incremental_io: res.metrics.total_io(),
                        scratch_io: scratch.metrics.total_io(),
                    });
                }
                Ok(CellOutput::Updates(Box::new(UpdatesSummary {
                    per_batch,
                    final_tuples: dyn_tc.tuple_count() as u64,
                })))
            }
        }
    }

    fn error(&self, source: StorageError) -> ExpError {
        let (algorithm, query) = match &self.task {
            CellTask::Query {
                algorithm, query, ..
            } => (Some(*algorithm), Some(*query)),
            _ => (None, None),
        };
        ExpError::Cell {
            fam: self.fam.name,
            instance: self.instance,
            set: self.set,
            algorithm,
            query,
            source,
        }
    }
}

/// Table 2 statistics of one graph instance (one `Stats` cell).
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of arcs `|G|`.
    pub arcs: u64,
    /// Maximum node level.
    pub max_level: u32,
    /// Rectangle-model height.
    pub height: f64,
    /// Rectangle-model width.
    pub width: f64,
    /// Mean arc locality over all arcs.
    pub avg_loc: f64,
    /// Mean locality over transitive-reduction arcs.
    pub avg_irr: f64,
    /// Closure size `|TC|`.
    pub tc_pairs: u64,
}

/// One batch of an `Updates` cell: the stream's churn at that point and
/// the page I/O of maintaining incrementally vs. recomputing from
/// scratch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchPoint {
    /// Operations in the batch.
    pub ops: u64,
    /// Closure tuples the batch added (net).
    pub inserted: u64,
    /// Closure tuples the batch removed (net).
    pub removed: u64,
    /// Page I/O of the incremental maintenance run.
    pub incremental_io: u64,
    /// Page I/O of a full Seminaive recompute at the post-batch graph.
    pub scratch_io: u64,
}

/// Output of one `Updates` cell: the per-batch crossover data plus the
/// final closure size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdatesSummary {
    /// One point per applied batch, in stream order.
    pub per_batch: Vec<BatchPoint>,
    /// `|TC|` after the whole stream.
    pub final_tuples: u64,
}

impl UpdatesSummary {
    /// Total incremental maintenance I/O across the stream.
    pub fn total_incremental_io(&self) -> u64 {
        self.per_batch.iter().map(|b| b.incremental_io).sum()
    }

    /// Total from-scratch recompute I/O across the stream.
    pub fn total_scratch_io(&self) -> u64 {
        self.per_batch.iter().map(|b| b.scratch_io).sum()
    }
}

/// Output of one cell, matching its [`CellTask`].
#[derive(Clone, Debug)]
pub enum CellOutput {
    /// Metrics of a `Query` cell.
    Metrics(Box<CostMetrics>),
    /// Statistics of a `Stats` cell.
    Stats(Box<GraphStats>),
    /// Model of a `Shape` cell.
    Shape(Box<RectangleModel>),
    /// Crossover data of an `Updates` cell.
    Updates(Box<UpdatesSummary>),
}

// ---------------------------------------------------------------------
// Running cells
// ---------------------------------------------------------------------

/// Where (if anywhere) each cell's event stream and span tree go.
#[derive(Clone, Copy)]
pub enum Sinks<'a> {
    /// Untraced, untimed.
    None,
    /// Per-cell files: a JSONL event trace under `trace`
    /// ([`Cell::trace_file_name`]) and/or a wall-clock span tree under
    /// `timing` (the trace's name, `.spans.json` for `.jsonl`); the directories are created
    /// if absent. Each cell gets its own sink, so traces are a pure
    /// function of cell coordinates, identical at any worker count
    /// (`tcq analyze` folds one into its profile report). Timing files
    /// are *measured wall-clock* — never byte-stable, never gating — and
    /// arming them changes no byte of any other output.
    Dirs {
        /// Directory for the per-cell traces.
        trace: Option<&'a Path>,
        /// Directory for the per-cell span trees.
        timing: Option<&'a Path>,
    },
    /// A caller-supplied [`Tracer`] per cell (slot `i` traces cell `i`;
    /// the slice must be as long as the cell list). The baseline harness
    /// tees every cell's stream into a digest and a profile fold at once.
    Each(&'a [Tracer]),
}

/// Executes `cells` on [`tc_det::run_indexed`]'s `jobs` workers and
/// returns their outputs **in cell order**, regardless of which worker
/// ran what when.
///
/// Determinism: a cell's output is a pure function of its coordinates,
/// and the pool places it by its index, so the returned vector is
/// bit-identical for every `jobs` value. On the first failing cell the
/// pool stops handing out work, and the error of the lowest-index cell
/// that ran (with its coordinates) is returned; no worker thread panics.
pub fn run_cells(cells: &[Cell], jobs: usize, sinks: Sinks<'_>) -> ExpResult<Vec<CellOutput>> {
    match sinks {
        Sinks::None => {}
        Sinks::Dirs { trace, timing } => {
            for dir in [trace, timing].into_iter().flatten() {
                fs::create_dir_all(dir).map_err(|e| {
                    ExpError::Internal(format!("create sink dir {}: {e}", dir.display()))
                })?;
            }
        }
        Sinks::Each(tracers) => {
            if tracers.len() != cells.len() {
                return Err(ExpError::Internal(format!(
                    "run_cells: {} tracers for {} cells",
                    tracers.len(),
                    cells.len()
                )));
            }
        }
    }
    tc_det::run_indexed(jobs, cells.len(), |_, i| exec_cell(&cells[i], i, sinks))
}

/// Runs cell `i` with its sinks attached. File-backed sinks are per-cell
/// and flushed before the output is returned, so a cell's trace file is
/// complete once its result exists.
fn exec_cell(cell: &Cell, i: usize, sinks: Sinks<'_>) -> ExpResult<CellOutput> {
    let (trace, timing) = match sinks {
        Sinks::None => (None, None),
        Sinks::Each(tracers) => {
            let Some(t) = tracers.get(i) else {
                return Err(ExpError::Internal(format!("no tracer for cell {i}")));
            };
            return cell.execute(t.clone(), SpanRecorder::disabled());
        }
        Sinks::Dirs { trace, timing } => (trace, timing),
    };
    let file_err = |what: &str, path: &Path, e: std::io::Error| {
        ExpError::Internal(format!("{what} {}: {e}", path.display()))
    };
    let jsonl = match trace {
        Some(dir) => {
            let path = dir.join(cell.trace_file_name(i));
            let file =
                fs::File::create(&path).map_err(|e| file_err("create trace file", &path, e))?;
            Some((path, Arc::new(JsonlSink::new(BufWriter::new(file)))))
        }
        None => None,
    };
    let spans = timing.map(|dir| {
        let (recorder, collector) = SpanRecorder::collecting();
        (dir.join(cell.timing_file_name(i)), recorder, collector)
    });
    let tracer = match &jsonl {
        Some((_, s)) => Tracer::new(s.clone()),
        None => Tracer::disabled(),
    };
    let recorder = spans
        .as_ref()
        .map(|(_, r, _)| r.clone())
        .unwrap_or_else(SpanRecorder::disabled);
    let out = cell.execute(tracer, recorder)?;
    if let Some((path, s)) = jsonl {
        s.finish()
            .map_err(|e| file_err("write trace file", &path, e))?;
    }
    if let Some((path, _, collector)) = spans {
        fs::write(&path, collector.tree().to_json())
            .map_err(|e| file_err("write timing file", &path, e))?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The grid: how sections declare their cells
// ---------------------------------------------------------------------

/// Handle to one registered grid point (an averaged data point, a single
/// run, or an analysis probe). Indexes into [`GridResults`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PointId(usize);

/// Builder collecting a section's data points, expanded into cells and
/// executed in one parallel sweep by [`Grid::run`].
///
/// Registration order is the canonical point order; within a point,
/// cells enumerate `(instance, set)` in the same nested order the old
/// serial harness used, so averages fold bit-identically.
pub struct Grid {
    opts: ExpOpts,
    cells: Vec<Cell>,
    ranges: Vec<Range<usize>>,
}

impl Grid {
    /// An empty grid scheduling with `opts.jobs` workers.
    pub fn new(opts: &ExpOpts) -> Grid {
        Grid {
            opts: opts.clone(),
            cells: Vec::new(),
            ranges: Vec::new(),
        }
    }

    fn push_point(&mut self, cells: impl IntoIterator<Item = Cell>) -> PointId {
        let start = self.cells.len();
        self.cells.extend(cells);
        self.ranges.push(start..self.cells.len());
        PointId(self.ranges.len() - 1)
    }

    /// An averaged data point: `instances × (source_sets for PTC, 1 for
    /// full closure)` query cells.
    pub fn avg(
        &mut self,
        fam: &'static GraphFamily,
        algorithm: Algorithm,
        query: QuerySpec,
        cfg: &SystemConfig,
    ) -> PointId {
        let sets = match query {
            QuerySpec::Full => 1,
            QuerySpec::Ptc(_) => self.opts.source_sets,
        };
        let instances = self.opts.instances;
        let cfg = self.cell_cfg(cfg);
        let mut cells = Vec::with_capacity((instances * sets) as usize);
        for instance in 0..instances {
            for set in 0..sets {
                cells.push(Cell {
                    fam,
                    instance,
                    set,
                    task: CellTask::Query {
                        algorithm,
                        query,
                        cfg: cfg.clone(),
                    },
                });
            }
        }
        self.push_point(cells)
    }

    /// Clones a section's config with the sweep-wide storage backend
    /// stamped in — the single place [`ExpOpts::backend`] reaches every
    /// query cell.
    fn cell_cfg(&self, cfg: &SystemConfig) -> SystemConfig {
        cfg.clone().backend(self.opts.backend.clone())
    }

    /// A single query run at explicit `(instance, set)` coordinates.
    pub fn one(
        &mut self,
        fam: &'static GraphFamily,
        instance: u64,
        set: u64,
        algorithm: Algorithm,
        query: QuerySpec,
        cfg: &SystemConfig,
    ) -> PointId {
        self.push_point([Cell {
            fam,
            instance,
            set,
            task: CellTask::Query {
                algorithm,
                query,
                cfg: self.cell_cfg(cfg),
            },
        }])
    }

    /// Table 2 statistics, one cell per instance.
    pub fn stats(&mut self, fam: &'static GraphFamily) -> PointId {
        let cells: Vec<Cell> = (0..self.opts.instances)
            .map(|instance| Cell {
                fam,
                instance,
                set: 0,
                task: CellTask::Stats,
            })
            .collect();
        self.push_point(cells)
    }

    /// Rectangle model of instance 0 (the shape probe Table 4 and the
    /// advisor section use).
    pub fn shape(&mut self, fam: &'static GraphFamily) -> PointId {
        self.push_point([Cell {
            fam,
            instance: 0,
            set: 0,
            task: CellTask::Shape,
        }])
    }

    /// A dynamic-maintenance run on instance 0: a seeded update stream
    /// of `batches × batch_size` operations with the given churn
    /// profile, applied incrementally and compared against from-scratch
    /// recomputes (the `updates` section's cells).
    pub fn updates(
        &mut self,
        fam: &'static GraphFamily,
        kind: StreamKind,
        batches: usize,
        batch_size: usize,
        cfg: &SystemConfig,
    ) -> PointId {
        self.push_point([Cell {
            fam,
            instance: 0,
            set: 0,
            task: CellTask::Updates {
                kind,
                batches,
                batch_size,
                cfg: self.cell_cfg(cfg),
            },
        }])
    }

    /// Executes every registered cell across `opts.jobs` workers,
    /// tracing each cell into `opts.trace_dir` and writing its
    /// wall-clock span tree into `opts.timing_dir` when set.
    pub fn run(self) -> ExpResult<GridResults> {
        let sinks = Sinks::Dirs {
            trace: self.opts.trace_dir.as_deref(),
            timing: self.opts.timing_dir.as_deref(),
        };
        let outputs = run_cells(&self.cells, self.opts.jobs, sinks)?;
        Ok(GridResults {
            outputs,
            ranges: self.ranges,
        })
    }
}

/// Results of a [`Grid`] sweep, indexed by [`PointId`] in canonical cell
/// order.
pub struct GridResults {
    outputs: Vec<CellOutput>,
    ranges: Vec<Range<usize>>,
}

impl GridResults {
    fn point(&self, id: PointId) -> &[CellOutput] {
        &self.outputs[self.ranges[id.0].clone()]
    }

    /// Folds a point's query cells into averaged metrics, in canonical
    /// `(instance, set)` order — bit-identical to the old serial fold.
    pub fn avg(&self, id: PointId) -> AvgMetrics {
        let mut avg = AvgMetrics::default();
        for m in self.metrics(id) {
            avg.add(m);
        }
        avg
    }

    /// Iterates a point's raw [`CostMetrics`] in canonical order.
    pub fn metrics(&self, id: PointId) -> impl Iterator<Item = &CostMetrics> {
        self.point(id).iter().filter_map(|o| match o {
            CellOutput::Metrics(m) => Some(&**m),
            _ => None,
        })
    }

    /// The metrics of a single-run point (first query cell).
    pub fn one(&self, id: PointId) -> &CostMetrics {
        match self.metrics(id).next() {
            Some(m) => m,
            // A PointId can only be minted by the Grid that produced
            // these results, so a kind mismatch is unreachable.
            None => unreachable!("point {id:?} has no query cells"),
        }
    }

    /// Iterates a `stats` point's per-instance [`GraphStats`].
    pub fn stats(&self, id: PointId) -> impl Iterator<Item = &GraphStats> {
        self.point(id).iter().filter_map(|o| match o {
            CellOutput::Stats(s) => Some(&**s),
            _ => None,
        })
    }

    /// The summary of an `updates` point.
    pub fn updates(&self, id: PointId) -> &UpdatesSummary {
        let summary = self.point(id).iter().find_map(|o| match o {
            CellOutput::Updates(s) => Some(&**s),
            _ => None,
        });
        match summary {
            Some(s) => s,
            None => unreachable!("point {id:?} has no updates cell"),
        }
    }

    /// The rectangle model of a `shape` point.
    pub fn shape(&self, id: PointId) -> &RectangleModel {
        let shape = self.point(id).iter().find_map(|o| match o {
            CellOutput::Shape(r) => Some(&**r),
            _ => None,
        });
        match shape {
            Some(r) => r,
            None => unreachable!("point {id:?} has no shape cell"),
        }
    }
}

// ---------------------------------------------------------------------
// Section registry
// ---------------------------------------------------------------------

/// A section entry point: builds its grid, runs it, renders a markdown
/// fragment.
pub type SectionFn = fn(&ExpOpts) -> ExpResult<String>;

/// Every report section in canonical (paper) order, plus the dynamic
/// `updates` study appended after the paper's own material.
pub const SECTIONS: [(&str, SectionFn); 14] = [
    ("table2", table2::run),
    ("table3", table3::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("figs8-12", highsel::run),
    ("table4", table4::run),
    ("predictiveness", predictiveness::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("related", related::run),
    ("ablations", ablations::run),
    ("advisor", advisor::run),
    ("updates", updates::run),
    ("reachindex", reachindex::run),
];

/// Looks a section up by name.
pub fn section(name: &str) -> Option<SectionFn> {
    SECTIONS
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|&(_, f)| f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::family;

    fn quick1() -> ExpOpts {
        ExpOpts::quick().jobs(1)
    }

    #[test]
    fn grid_results_are_positionally_stable() {
        let opts = quick1();
        let mut g = Grid::new(&opts);
        let cfg = SystemConfig::default();
        let a = g.avg(family("G3"), Algorithm::Btc, QuerySpec::Ptc(2), &cfg);
        let b = g.shape(family("G1"));
        let c = g.stats(family("G2"));
        let r = g.run().expect("grid");
        assert_eq!(r.avg(a).runs, 1);
        assert!(r.shape(b).width > 0.0);
        assert_eq!(r.stats(c).count(), 1);

        // The averaging fold over a 2 × 2 matrix.
        let mut g = Grid::new(&ExpOpts {
            instances: 2,
            source_sets: 2,
            ..opts
        });
        let ptc = g.avg(family("G3"), Algorithm::Srch, QuerySpec::Ptc(2), &cfg);
        let full = g.avg(family("G3"), Algorithm::Btc, QuerySpec::Full, &cfg);
        let r = g.run().expect("grid");
        assert_eq!(r.avg(ptc).runs, 4);
        assert_eq!(r.avg(full).runs, 2, "full closure ignores source sets");
    }

    #[test]
    fn scheduler_is_order_invariant_for_a_tiny_grid() {
        let cfg = SystemConfig::default();
        let cells: Vec<Cell> = (0..3)
            .map(|i| Cell {
                fam: family("G3"),
                instance: 0,
                set: i,
                task: CellTask::Query {
                    algorithm: Algorithm::Btc,
                    query: QuerySpec::Ptc(2),
                    cfg: cfg.clone(),
                },
            })
            .collect();
        let serial = run_cells(&cells, 1, Sinks::None).expect("serial");
        let parallel = run_cells(&cells, 3, Sinks::None).expect("parallel");
        let ios = |outs: &[CellOutput]| -> Vec<u64> {
            outs.iter()
                .map(|o| match o {
                    CellOutput::Metrics(m) => m.total_io(),
                    _ => 0,
                })
                .collect()
        };
        assert_eq!(ios(&serial), ios(&parallel));
    }

    #[test]
    fn cell_seeds_are_coordinate_pure() {
        let mk = |instance, set| Cell {
            fam: family("G5"),
            instance,
            set,
            task: CellTask::Stats,
        };
        assert_eq!(mk(0, 1).seed(), mk(0, 1).seed());
        assert_ne!(mk(0, 1).seed(), mk(1, 0).seed());
    }

    #[test]
    fn section_registry_resolves() {
        assert_eq!(SECTIONS.len(), 14);
        assert!(section("table2").is_some());
        assert!(section("FIGS8-12").is_some());
        assert!(section("predictiveness").is_some());
        assert!(section("updates").is_some());
        assert!(section("reachindex").is_some());
        assert!(section("nope").is_none());
    }

    #[test]
    fn updates_cell_produces_crossover_points() {
        let fam = family("G3");
        let cfg = SystemConfig::with_buffer(16);
        let cell = Cell {
            fam,
            instance: 0,
            set: 0,
            task: CellTask::Updates {
                kind: tc_graph::StreamKind::Mixed,
                batches: 2,
                batch_size: 4,
                cfg,
            },
        };
        let out = cell
            .execute(Tracer::disabled(), SpanRecorder::disabled())
            .expect("updates cell");
        let CellOutput::Updates(s) = out else {
            panic!("updates cell produced non-updates output");
        };
        assert_eq!(s.per_batch.len(), 2);
        assert!(s.final_tuples > 0);
        assert!(s.total_incremental_io() > 0);
        assert!(s.total_scratch_io() > 0);
    }
}
