//! Support code for the `tcq` command-line tool: edge-list parsing with
//! a label↔id mapping, and argument handling.
//!
//! Kept in the library so it is unit-testable; `src/bin/tcq.rs` is a thin
//! wrapper.

use std::collections::HashMap;
use tc_core::Algorithm;
use tc_graph::{Graph, NodeId, StreamKind};

/// An edge-list graph with human-readable node labels.
#[derive(Debug, Clone)]
pub struct LabeledGraph {
    /// The graph over dense ids `0..n`.
    pub graph: Graph,
    /// Label of each id.
    pub labels: Vec<String>,
    /// Ids whose input had a `v v` line, sorted and deduplicated.
    /// [`Graph`] is irreflexive and drops them; a self-loop is a cycle
    /// of length one, and callers must treat it as one.
    pub self_loops: Vec<NodeId>,
    index: HashMap<String, NodeId>,
}

impl LabeledGraph {
    /// Parses a whitespace-separated edge list: one `from to` pair per
    /// line; blank lines and `#` comments ignored. Labels are arbitrary
    /// tokens and are interned in first-appearance order.
    pub fn parse(text: &str) -> Result<LabeledGraph, String> {
        let mut index: HashMap<String, NodeId> = HashMap::new();
        let mut labels: Vec<String> = Vec::new();
        let intern = |tok: &str, labels: &mut Vec<String>, index: &mut HashMap<String, NodeId>| {
            *index.entry(tok.to_string()).or_insert_with(|| {
                labels.push(tok.to_string());
                (labels.len() - 1) as NodeId
            })
        };
        let mut arcs: Vec<(NodeId, NodeId)> = Vec::new();
        let mut self_loops: Vec<NodeId> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (a, b) = match (parts.next(), parts.next(), parts.next()) {
                (Some(a), Some(b), None) => (a, b),
                _ => {
                    return Err(format!(
                        "line {}: expected `from to`, got {raw:?}",
                        lineno + 1
                    ))
                }
            };
            let u = intern(a, &mut labels, &mut index);
            let v = intern(b, &mut labels, &mut index);
            if u == v {
                self_loops.push(u);
            } else {
                arcs.push((u, v));
            }
        }
        self_loops.sort_unstable();
        self_loops.dedup();
        let n = labels.len();
        Ok(LabeledGraph {
            graph: Graph::from_arcs(n, arcs),
            labels,
            self_loops,
            index,
        })
    }

    /// Resolves a label to its id.
    pub fn id(&self, label: &str) -> Option<NodeId> {
        self.index.get(label).copied()
    }

    /// The label of an id.
    pub fn label(&self, id: NodeId) -> &str {
        &self.labels[id as usize]
    }
}

/// Parsed command line for `tcq`.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Input edge-list path.
    pub input: String,
    /// Source labels (empty = full closure).
    pub sources: Vec<String>,
    /// Requested algorithm (`None` = let the advisor decide).
    pub algorithm: Option<Algorithm>,
    /// Buffer pool pages.
    pub buffer: usize,
    /// Print every answer tuple (not just the summary).
    pub print_answer: bool,
    /// Write the run's JSONL event trace here (`--trace <path>`).
    pub trace: Option<String>,
    /// Storage backend (`--backend sim|file|file:DIR`, default sim).
    pub backend: tc_storage::Backend,
}

impl CliArgs {
    /// Parses `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<CliArgs, String> {
        let mut input: Option<String> = None;
        let mut out = CliArgs {
            input: String::new(),
            sources: Vec::new(),
            algorithm: None,
            buffer: 20,
            print_answer: false,
            trace: None,
            backend: tc_storage::Backend::Sim,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--sources" | "-s" => {
                    i += 1;
                    let v = args
                        .get(i)
                        .ok_or("--sources needs a comma-separated list")?;
                    out.sources = v
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect();
                    if out.sources.is_empty() {
                        return Err(
                            "--sources got an empty list (omit the flag for full closure)".into(),
                        );
                    }
                }
                "--algo" | "-a" => {
                    i += 1;
                    let v = args.get(i).ok_or("--algo needs a name")?;
                    out.algorithm = Some(parse_algorithm(v)?);
                }
                "--buffer" | "-m" => {
                    i += 1;
                    out.buffer = args
                        .get(i)
                        .ok_or("--buffer needs a page count")?
                        .parse()
                        .map_err(|e| format!("--buffer: {e}"))?;
                    if out.buffer == 0 {
                        return Err("--buffer needs at least 1 page".into());
                    }
                }
                "--print-answer" => out.print_answer = true,
                "--trace" => {
                    i += 1;
                    let v = args.get(i).ok_or("--trace needs an output path")?;
                    out.trace = Some(v.clone());
                }
                "--backend" => {
                    i += 1;
                    let v = args.get(i).ok_or("--backend needs sim, file or file:DIR")?;
                    out.backend = tc_storage::Backend::parse(v)?;
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag {flag}\n{USAGE}"))
                }
                path => {
                    if input.replace(path.to_string()).is_some() {
                        return Err("only one input file is accepted".into());
                    }
                }
            }
            i += 1;
        }
        out.input = input.ok_or_else(|| format!("missing input file\n{USAGE}"))?;
        Ok(out)
    }
}

/// Usage text for `tcq`.
pub const USAGE: &str = "\
usage: tcq <edges-file> [options]
       tcq analyze <trace.jsonl> [options]
       tcq update <edges-file> [options]
       tcq serve <edges-file> [options]
  <edges-file>          whitespace edge list: `from to` per line, # comments
  -s, --sources A,B,..  partial closure from these nodes (default: full)
  -a, --algo NAME       btc|hyb|bj|srch|spn|jkb|jkb2|seminaive|reachindex
                        (default: advisor)
  -m, --buffer N        buffer pool pages (default: 20)
      --print-answer    print every (source, reachable) pair
      --trace PATH      write the run's event trace as JSONL to PATH
      --backend B       storage backend: sim (counting, default), file
                        (real files in a temp dir) or file:DIR
analyze options (folds a --trace file into a profile report):
      --top K           hot-page histogram size (default: 10)
      --interval N      residency sampling interval, events (default: 65536)
      --timing PATH     also render a wall-clock span tree (a .spans.json
                        file from `section --timing DIR`)
update options (maintains a materialized closure under a seeded stream):
      --stream KIND     insert-only|delete-heavy|mixed (default: mixed)
      --batches N       update batches to apply (default: 4)
      --batch-size K    operations per batch (default: 16)
      --seed S          stream seed (default: 3658619284)
      (plus --buffer, --trace and --backend as above; input must be acyclic)
serve options (freeze the closure into a snapshot, serve a seeded mix):
      --workers N       worker threads (default: 4)
      --clients N       concurrent clients (default: 4)
      --per-client N    requests per client (default: 64)
      --mix M           reach-heavy|ptc-heavy|mixed (default: mixed)
      --theta T         Zipf skew of query sources (default: 0.8)
      --seed S          query-stream seed (default: the canonical seed)
      --cache N         hot-source cache rows per session (default: 4)
      --updates N       update batches published mid-serve (default: 0)
      --batch-size K    operations per published batch (default: 16)
      --metrics PATH    write wall-clock metrics: Prometheus text at PATH,
                        JSON at PATH.json (non-gating; stdout is identical
                        with or without it)
      (plus --buffer and --backend as above; input must be acyclic)
Cyclic inputs are condensed automatically (strongly connected components);
the advisor default applies to acyclic inputs, cyclic ones run BTC unless
--algo says otherwise. A self-loop line `a a` is a cycle of length one: a
query reports `a` as reaching itself; update and serve refuse it as cyclic.";

/// Parsed command line for `tcq update`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateArgs {
    /// Input edge-list path.
    pub input: String,
    /// Churn profile of the generated stream.
    pub stream: StreamKind,
    /// Number of update batches.
    pub batches: usize,
    /// Operations per batch.
    pub batch_size: usize,
    /// Stream seed.
    pub seed: u64,
    /// Buffer pool pages.
    pub buffer: usize,
    /// Write the maintenance runs' JSONL event trace here.
    pub trace: Option<String>,
    /// Storage backend.
    pub backend: tc_storage::Backend,
}

impl UpdateArgs {
    /// Parses the arguments following the `update` keyword.
    pub fn parse(args: &[String]) -> Result<UpdateArgs, String> {
        let mut input: Option<String> = None;
        let mut out = UpdateArgs {
            input: String::new(),
            stream: StreamKind::Mixed,
            batches: 4,
            batch_size: 16,
            seed: 0xDA12_1994,
            buffer: 20,
            trace: None,
            backend: tc_storage::Backend::Sim,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--stream" => {
                    i += 1;
                    let v = args
                        .get(i)
                        .ok_or("--stream needs insert-only, delete-heavy or mixed")?;
                    out.stream = StreamKind::ALL
                        .into_iter()
                        .find(|k| k.name().eq_ignore_ascii_case(v))
                        .ok_or_else(|| {
                            format!(
                                "unknown stream kind {v:?} (try insert-only, delete-heavy, mixed)"
                            )
                        })?;
                }
                "--batches" => {
                    i += 1;
                    out.batches = parse_count(&args, i, "--batches")?;
                }
                "--batch-size" => {
                    i += 1;
                    out.batch_size = parse_count(&args, i, "--batch-size")?;
                }
                "--seed" => {
                    i += 1;
                    out.seed = args
                        .get(i)
                        .ok_or("--seed needs a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--buffer" | "-m" => {
                    i += 1;
                    out.buffer = parse_count(&args, i, "--buffer")?;
                }
                "--trace" => {
                    i += 1;
                    let v = args.get(i).ok_or("--trace needs an output path")?;
                    out.trace = Some(v.clone());
                }
                "--backend" => {
                    i += 1;
                    let v = args.get(i).ok_or("--backend needs sim, file or file:DIR")?;
                    out.backend = tc_storage::Backend::parse(v)?;
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag {flag}\n{USAGE}"))
                }
                path => {
                    if input.replace(path.to_string()).is_some() {
                        return Err("only one input file is accepted".into());
                    }
                }
            }
            i += 1;
        }
        out.input = input.ok_or_else(|| format!("missing input file\n{USAGE}"))?;
        Ok(out)
    }
}

fn parse_count(args: &[String], i: usize, flag: &str) -> Result<usize, String> {
    let n: usize = args
        .get(i)
        .ok_or_else(|| format!("{flag} needs a count"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))?;
    if n == 0 {
        return Err(format!("{flag} needs at least 1"));
    }
    Ok(n)
}

/// Parsed command line for `tcq serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Input edge-list path.
    pub input: String,
    /// Worker threads draining the client queues.
    pub workers: usize,
    /// Concurrent clients in the generated stream.
    pub clients: usize,
    /// Requests per client.
    pub per_client: usize,
    /// Query-shape mix.
    pub mix: tc_serve::MixSpec,
    /// Zipf skew of query sources.
    pub theta: f64,
    /// Query-stream seed.
    pub seed: u64,
    /// Per-session buffer pool pages.
    pub buffer: usize,
    /// Hot-source cache rows per session.
    pub cache: usize,
    /// Update batches published mid-serve (0 = static snapshot).
    pub updates: usize,
    /// Operations per published batch.
    pub batch_size: usize,
    /// Write wall-clock metrics here: Prometheus text at PATH,
    /// JSON at PATH.json, refreshed periodically during the serve and
    /// finalized at the end. Strictly non-gating — the deterministic
    /// stdout summary is byte-identical with or without it.
    pub metrics: Option<String>,
    /// Storage backend.
    pub backend: tc_storage::Backend,
}

impl ServeArgs {
    /// Parses the arguments following the `serve` keyword.
    pub fn parse(args: &[String]) -> Result<ServeArgs, String> {
        let mut input: Option<String> = None;
        let mut out = ServeArgs {
            input: String::new(),
            workers: 4,
            clients: 4,
            per_client: 64,
            mix: tc_serve::MixSpec::MIXED,
            theta: 0.8,
            seed: tc_serve::CANONICAL_SERVE_SEED,
            buffer: 8,
            cache: 4,
            updates: 0,
            batch_size: 16,
            metrics: None,
            backend: tc_storage::Backend::Sim,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--metrics" => {
                    i += 1;
                    let v = args.get(i).ok_or("--metrics needs an output path")?;
                    out.metrics = Some(v.clone());
                }
                "--workers" => {
                    i += 1;
                    out.workers = parse_count(&args, i, "--workers")?;
                }
                "--clients" => {
                    i += 1;
                    out.clients = parse_count(&args, i, "--clients")?;
                }
                "--per-client" => {
                    i += 1;
                    out.per_client = parse_count(&args, i, "--per-client")?;
                }
                "--mix" => {
                    i += 1;
                    let v = args
                        .get(i)
                        .ok_or("--mix needs reach-heavy, ptc-heavy or mixed")?;
                    out.mix = match v.to_ascii_lowercase().as_str() {
                        "reach-heavy" => tc_serve::MixSpec::REACH_HEAVY,
                        "ptc-heavy" => tc_serve::MixSpec::PTC_HEAVY,
                        "mixed" => tc_serve::MixSpec::MIXED,
                        _ => {
                            return Err(format!(
                                "unknown mix {v:?} (try reach-heavy, ptc-heavy, mixed)"
                            ))
                        }
                    };
                }
                "--theta" => {
                    i += 1;
                    out.theta = args
                        .get(i)
                        .ok_or("--theta needs a number ≥ 0")?
                        .parse()
                        .map_err(|e| format!("--theta: {e}"))?;
                    if !out.theta.is_finite() || out.theta < 0.0 {
                        return Err("--theta needs a finite number ≥ 0".into());
                    }
                }
                "--seed" => {
                    i += 1;
                    out.seed = args
                        .get(i)
                        .ok_or("--seed needs a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--buffer" | "-m" => {
                    i += 1;
                    out.buffer = parse_count(&args, i, "--buffer")?;
                }
                "--cache" => {
                    i += 1;
                    // 0 is meaningful here: it disables the cache.
                    out.cache = args
                        .get(i)
                        .ok_or("--cache needs a count")?
                        .parse()
                        .map_err(|e| format!("--cache: {e}"))?;
                }
                "--updates" => {
                    i += 1;
                    out.updates = args
                        .get(i)
                        .ok_or("--updates needs a count")?
                        .parse()
                        .map_err(|e| format!("--updates: {e}"))?;
                }
                "--batch-size" => {
                    i += 1;
                    out.batch_size = parse_count(&args, i, "--batch-size")?;
                }
                "--backend" => {
                    i += 1;
                    let v = args.get(i).ok_or("--backend needs sim, file or file:DIR")?;
                    out.backend = tc_storage::Backend::parse(v)?;
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag {flag}\n{USAGE}"))
                }
                path => {
                    if input.replace(path.to_string()).is_some() {
                        return Err("only one input file is accepted".into());
                    }
                }
            }
            i += 1;
        }
        out.input = input.ok_or_else(|| format!("missing input file\n{USAGE}"))?;
        Ok(out)
    }
}

/// Parsed command line for `tcq analyze`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeArgs {
    /// JSONL trace path.
    pub input: String,
    /// Hot-page histogram size.
    pub top_k: usize,
    /// Residency sampling interval, in events.
    pub interval: u64,
    /// Wall-clock span-tree JSON to render alongside the profile
    /// (`--timing <path>`, as written by `section --timing DIR`).
    pub timing: Option<String>,
}

impl AnalyzeArgs {
    /// Parses the arguments following the `analyze` keyword.
    pub fn parse(args: &[String]) -> Result<AnalyzeArgs, String> {
        let mut input: Option<String> = None;
        let mut out = AnalyzeArgs {
            input: String::new(),
            top_k: 10,
            interval: 65_536,
            timing: None,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--timing" => {
                    i += 1;
                    let v = args.get(i).ok_or("--timing needs a span-tree path")?;
                    out.timing = Some(v.clone());
                }
                "--top" => {
                    i += 1;
                    out.top_k = args
                        .get(i)
                        .ok_or("--top needs a count")?
                        .parse()
                        .map_err(|e| format!("--top: {e}"))?;
                }
                "--interval" => {
                    i += 1;
                    out.interval = args
                        .get(i)
                        .ok_or("--interval needs an event count")?
                        .parse()
                        .map_err(|e| format!("--interval: {e}"))?;
                    if out.interval == 0 {
                        return Err("--interval needs at least 1 event".into());
                    }
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag {flag}\n{USAGE}"))
                }
                path => {
                    if input.replace(path.to_string()).is_some() {
                        return Err("only one trace file is accepted".into());
                    }
                }
            }
            i += 1;
        }
        out.input = input.ok_or_else(|| format!("missing trace file\n{USAGE}"))?;
        Ok(out)
    }
}

/// A parsed `tcq` invocation: a query run, a trace analysis, or a
/// dynamic-maintenance stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `tcq <edges-file> ...` — build, run, report.
    Run(CliArgs),
    /// `tcq analyze <trace.jsonl> ...` — fold a trace into a profile.
    Analyze(AnalyzeArgs),
    /// `tcq update <edges-file> ...` — maintain a materialized closure
    /// under a seeded update stream.
    Update(UpdateArgs),
    /// `tcq serve <edges-file> ...` — freeze the closure and serve a
    /// seeded query mix against it.
    Serve(ServeArgs),
}

impl Command {
    /// Parses `args` (without the program name), dispatching on the
    /// leading `analyze` / `update` / `serve` keyword.
    pub fn parse(args: &[String]) -> Result<Command, String> {
        match args.first().map(String::as_str) {
            Some("analyze") => AnalyzeArgs::parse(&args[1..]).map(Command::Analyze),
            Some("update") => UpdateArgs::parse(&args[1..]).map(Command::Update),
            Some("serve") => ServeArgs::parse(&args[1..]).map(Command::Serve),
            _ => CliArgs::parse(args).map(Command::Run),
        }
    }
}

fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    Algorithm::WITH_INDEX
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown algorithm {s:?} (try btc, jkb2, srch, ...)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_edge_lists_with_labels_and_comments() {
        let g = LabeledGraph::parse("# deps\nlibc gcc\nrustc libc\n\nrustc llvm # tail comment\n")
            .unwrap();
        assert_eq!(g.graph.n(), 4);
        assert_eq!(g.graph.arc_count(), 3);
        assert_eq!(g.label(g.id("rustc").unwrap()), "rustc");
        assert!(g
            .graph
            .has_arc(g.id("rustc").unwrap(), g.id("llvm").unwrap()));
    }

    #[test]
    fn remembers_self_loops_the_graph_drops() {
        let g = LabeledGraph::parse("a a\na b\nc c\nb c\na a\n").unwrap();
        assert_eq!((g.graph.n(), g.graph.arc_count()), (3, 2));
        assert_eq!(g.self_loops, vec![g.id("a").unwrap(), g.id("c").unwrap()]);
        assert!(LabeledGraph::parse("a b\n").unwrap().self_loops.is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(LabeledGraph::parse("a b c\n").is_err());
        assert!(LabeledGraph::parse("only_one\n").is_err());
        assert!(LabeledGraph::parse("").unwrap().graph.n() == 0);
    }

    #[test]
    fn parses_full_cli() {
        let args: Vec<String> = [
            "g.txt",
            "-s",
            "a,b",
            "--algo",
            "jkb2",
            "-m",
            "50",
            "--print-answer",
            "--trace",
            "t.jsonl",
            "--backend",
            "file",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let c = CliArgs::parse(&args).unwrap();
        assert_eq!(c.input, "g.txt");
        assert_eq!(c.sources, vec!["a", "b"]);
        assert_eq!(c.algorithm, Some(Algorithm::Jkb2));
        assert_eq!(c.buffer, 50);
        assert!(c.print_answer);
        assert_eq!(c.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(c.backend, tc_storage::Backend::File { dir: None });
    }

    #[test]
    fn parses_the_index_algorithm() {
        let args: Vec<String> = ["g.txt", "--algo", "reachindex"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let c = CliArgs::parse(&args).unwrap();
        assert_eq!(c.algorithm, Some(Algorithm::ReachIndex));
        assert!(CliArgs::parse(&["g.txt".into(), "--algo".into(), "ritc".into()]).is_err());
    }

    #[test]
    fn backend_defaults_to_sim_and_rejects_garbage() {
        let c = CliArgs::parse(&["g.txt".to_string()]).unwrap();
        assert_eq!(c.backend, tc_storage::Backend::Sim);
        assert!(CliArgs::parse(&["g.txt".into(), "--backend".into()]).is_err());
        assert!(CliArgs::parse(&["g.txt".into(), "--backend".into(), "mmap".into()]).is_err());
    }

    #[test]
    fn parses_the_analyze_subcommand() {
        let args: Vec<String> = ["analyze", "t.jsonl", "--top", "5", "--interval", "1024"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let c = Command::parse(&args).unwrap();
        assert_eq!(
            c,
            Command::Analyze(AnalyzeArgs {
                input: "t.jsonl".into(),
                top_k: 5,
                interval: 1024,
                timing: None,
            })
        );
        let t = AnalyzeArgs::parse(&["t.jsonl".into(), "--timing".into(), "t.spans.json".into()])
            .unwrap();
        assert_eq!(t.timing.as_deref(), Some("t.spans.json"));
        assert!(AnalyzeArgs::parse(&["t.jsonl".into(), "--timing".into()]).is_err());
        // Without the keyword the run path is taken.
        assert!(matches!(
            Command::parse(&["g.txt".to_string()]),
            Ok(Command::Run(_))
        ));
        assert!(Command::parse(&["analyze".to_string()]).is_err());
        assert!(AnalyzeArgs::parse(&["t.jsonl".into(), "--interval".into(), "0".into()]).is_err());
        assert!(AnalyzeArgs::parse(&["t.jsonl".into(), "--nope".into()]).is_err());
    }

    #[test]
    fn parses_the_update_subcommand() {
        let args: Vec<String> = [
            "update",
            "g.txt",
            "--stream",
            "delete-heavy",
            "--batches",
            "3",
            "--batch-size",
            "8",
            "--seed",
            "99",
            "-m",
            "32",
            "--backend",
            "file",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let Command::Update(u) = Command::parse(&args).unwrap() else {
            panic!("expected the update command");
        };
        assert_eq!(u.input, "g.txt");
        assert_eq!(u.stream, StreamKind::DeleteHeavy);
        assert_eq!((u.batches, u.batch_size, u.seed, u.buffer), (3, 8, 99, 32));
        assert_eq!(u.backend, tc_storage::Backend::File { dir: None });

        let d = UpdateArgs::parse(&["g.txt".to_string()]).unwrap();
        assert_eq!(d.stream, StreamKind::Mixed);
        assert_eq!((d.batches, d.batch_size, d.buffer), (4, 16, 20));
        assert_eq!(d.seed, 0xDA12_1994);
        assert!(d.trace.is_none());

        assert!(UpdateArgs::parse(&[]).is_err());
        assert!(UpdateArgs::parse(&["g.txt".into(), "--stream".into(), "nope".into()]).is_err());
        assert!(UpdateArgs::parse(&["g.txt".into(), "--batches".into(), "0".into()]).is_err());
        assert!(UpdateArgs::parse(&["g.txt".into(), "--seed".into(), "x".into()]).is_err());
        assert!(UpdateArgs::parse(&["g.txt".into(), "--bogus".into()]).is_err());
    }

    #[test]
    fn parses_the_serve_subcommand() {
        let args: Vec<String> = [
            "serve",
            "g.txt",
            "--workers",
            "2",
            "--clients",
            "3",
            "--per-client",
            "10",
            "--mix",
            "ptc-heavy",
            "--theta",
            "1.1",
            "--seed",
            "5",
            "--cache",
            "0",
            "--updates",
            "2",
            "--batch-size",
            "8",
            "-m",
            "16",
            "--backend",
            "file",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let Command::Serve(s) = Command::parse(&args).unwrap() else {
            panic!("expected the serve command");
        };
        assert_eq!(s.input, "g.txt");
        assert_eq!((s.workers, s.clients, s.per_client), (2, 3, 10));
        assert_eq!(s.mix, tc_serve::MixSpec::PTC_HEAVY);
        assert_eq!((s.theta, s.seed), (1.1, 5));
        assert_eq!((s.cache, s.updates, s.batch_size, s.buffer), (0, 2, 8, 16));
        assert_eq!(s.backend, tc_storage::Backend::File { dir: None });

        let d = ServeArgs::parse(&["g.txt".to_string()]).unwrap();
        assert_eq!((d.workers, d.clients, d.per_client), (4, 4, 64));
        assert_eq!(d.mix, tc_serve::MixSpec::MIXED);
        assert_eq!(d.seed, tc_serve::CANONICAL_SERVE_SEED);
        assert_eq!((d.cache, d.updates), (4, 0));
        assert!(d.metrics.is_none());

        let m = ServeArgs::parse(&["g.txt".into(), "--metrics".into(), "m.prom".into()]).unwrap();
        assert_eq!(m.metrics.as_deref(), Some("m.prom"));
        assert!(ServeArgs::parse(&["g.txt".into(), "--metrics".into()]).is_err());

        assert!(ServeArgs::parse(&[]).is_err());
        assert!(ServeArgs::parse(&["g.txt".into(), "--mix".into(), "nope".into()]).is_err());
        assert!(ServeArgs::parse(&["g.txt".into(), "--theta".into(), "-1".into()]).is_err());
        assert!(ServeArgs::parse(&["g.txt".into(), "--workers".into(), "0".into()]).is_err());
        assert!(ServeArgs::parse(&["g.txt".into(), "--wat".into()]).is_err());
    }

    #[test]
    fn defaults_and_errors() {
        let c = CliArgs::parse(&["g.txt".to_string()]).unwrap();
        assert!(c.sources.is_empty());
        assert_eq!(c.algorithm, None);
        assert_eq!(c.buffer, 20);
        assert!(c.trace.is_none());
        assert!(CliArgs::parse(&[]).is_err());
        assert!(CliArgs::parse(&["g.txt".into(), "--trace".into()]).is_err());
        assert!(CliArgs::parse(&["a".into(), "b".into()]).is_err());
        assert!(CliArgs::parse(&["g.txt".into(), "--algo".into(), "nope".into()]).is_err());
        assert!(CliArgs::parse(&["g.txt".into(), "--buffer".into(), "0".into()]).is_err());
        assert!(CliArgs::parse(&["g.txt".into(), "-s".into(), "".into()]).is_err());
    }
}
