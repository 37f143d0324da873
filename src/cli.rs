//! Support code for the `tcq` command-line tool: edge-list parsing with
//! a label↔id mapping, and argument handling.
//!
//! Kept in the library so it is unit-testable; `src/bin/tcq.rs` is a thin
//! wrapper. Every flag is declared once, as a [`Flag`] entry in its
//! subcommand's [`Args::FLAGS`] table: the parser and the usage text are
//! generic over the table, so neither can name a flag, a placeholder or
//! a default the other does not.

use std::collections::HashMap;
use std::fmt;
use tc_core::Algorithm;
use tc_graph::{Graph, NodeId, StreamKind};
use tc_serve::MixSpec;
use tc_storage::Backend;

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

/// Why a command line did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h` was given: print [`usage`] and exit 0.
    Help,
    /// A malformed command line: print the message and exit 1.
    Bad(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help => f.write_str(&usage()),
            CliError::Bad(msg) => f.write_str(msg),
        }
    }
}

/// One flag of a subcommand. The only place its spellings, placeholder,
/// help text, range check and default display are written.
struct Flag<A> {
    /// Accepted spellings, the short one (if any) first.
    names: &'static [&'static str],
    /// Placeholder of the value the flag takes; `""` for a switch.
    value: &'static str,
    /// Help text; `\n` starts a continuation line.
    help: &'static str,
    /// Parses and range-checks the value (`""` for a switch) into its
    /// field; the error is reported as `<spelling>: <error>`.
    set: fn(&mut A, &str) -> Result<(), String>,
    /// The field as the usage text shows it, applied to `A::default()`.
    default: Option<fn(&A) -> String>,
}

/// One [`Flag`]: `flag!([spellings] "PLACEHOLDER": "help", field = parser)`,
/// where `parser: fn(&str) -> Result<FieldType, String>`. A trailing
/// `, shown` puts the field's default in the usage text; `, shown by f`
/// does so through `f: fn(&FieldType) -> impl ToString`.
macro_rules! flag {
    (
        [$($name:literal),+] $value:literal: $help:expr,
        $field:ident = $parse:expr $(, $($shown:tt)+)?
    ) => {
        Flag {
            names: &[$($name),+],
            value: $value,
            help: $help,
            set: |a, v| {
                a.$field = $parse(v)?;
                Ok(())
            },
            default: flag!(@default $field $($($shown)+)?),
        }
    };
    (@default $field:ident) => { None };
    (@default $field:ident shown) => { Some(|a| a.$field.to_string()) };
    (@default $field:ident shown by $show:expr) => { Some(|a| $show(&a.$field).to_string()) };
}

const HELP: [&str; 2] = ["--help", "-h"];

/// The argument struct of one subcommand: its defaults, its flag table
/// and its single positional.
trait Args: Default + 'static {
    /// First line of the subcommand's block in the usage text.
    const HEADING: &'static str;
    /// What the positional is called in error messages.
    const POSITIONAL: &'static str;
    /// Every flag the subcommand accepts.
    const FLAGS: &'static [Flag<Self>];
    /// Where the positional goes.
    fn input(&mut self) -> &mut String;

    /// Parses the words following the subcommand keyword.
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let what = Self::POSITIONAL;
        let find = |word: &str| Self::FLAGS.iter().find(|f| f.names.contains(&word));
        let is_flag = |word: &str| find(word).is_some() || HELP.contains(&word);
        let mut out = Self::default();
        let mut input: Option<&str> = None;
        let mut words = args.iter().map(String::as_str);
        while let Some(word) = words.next() {
            if HELP.contains(&word) {
                return Err(CliError::Help);
            } else if let Some(flag) = find(word) {
                let value = match flag.value {
                    "" => "",
                    placeholder => words
                        .next()
                        .filter(|v| !is_flag(v))
                        .ok_or_else(|| CliError::Bad(format!("{word} needs {placeholder}")))?,
                };
                (flag.set)(&mut out, value).map_err(|e| CliError::Bad(format!("{word}: {e}")))?;
            } else if word.starts_with('-') {
                return Err(CliError::Bad(format!("unknown flag {word}\n{}", usage())));
            } else if input.replace(word).is_some() {
                return Err(CliError::Bad(format!("only one {what} is accepted")));
            }
        }
        *out.input() = input
            .ok_or_else(|| CliError::Bad(format!("missing {what}\n{}", usage())))?
            .to_string();
        Ok(out)
    }

    /// Appends the subcommand's block of the usage text: the heading,
    /// then one entry per flag with its default read off `Self::default()`.
    fn usage_block(out: &mut String) {
        let defaults = Self::default();
        out.push_str(Self::HEADING);
        for f in Self::FLAGS {
            let indent = if f.names.len() == 1 { "    " } else { "" };
            let mut left = format!("  {indent}{} {}", f.names.join(", "), f.value);
            let mut help = f.help.to_string();
            if let Some(show) = f.default {
                help.push_str(&format!(" (default: {})", show(&defaults)));
            }
            for line in help.lines() {
                out.push_str(&format!("{left:<24}{line}\n"));
                left.clear();
            }
        }
    }
}

/// Usage text for `tcq`, assembled from the four flag tables.
pub fn usage() -> String {
    let mut out = String::from(
        "\
usage: tcq <edges-file> [options]
       tcq analyze <trace.jsonl> [options]
       tcq update <edges-file> [options]
       tcq serve <edges-file> [options]
  <edges-file>          whitespace edge list: `from to` per line, # comments
",
    );
    CliArgs::usage_block(&mut out);
    AnalyzeArgs::usage_block(&mut out);
    UpdateArgs::usage_block(&mut out);
    ServeArgs::usage_block(&mut out);
    out.push_str(
        "\
Cyclic inputs are condensed automatically (strongly connected components);
the advisor default applies to acyclic inputs, cyclic ones run BTC unless
--algo says otherwise. A self-loop line `a a` is a cycle of length one: a
query reports `a` as reaching itself; update and serve refuse it as cyclic.",
    );
    out
}

// Value parsers: `fn(&str) -> Result<Field, String>`, the error shown
// after the flag's spelling.

fn number<T: std::str::FromStr<Err: fmt::Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e: T::Err| e.to_string())
}

fn at_least_one<T: std::str::FromStr<Err: fmt::Display> + PartialOrd + From<u8>>(
    v: &str,
) -> Result<T, String> {
    match number::<T>(v)? {
        n if n >= T::from(1) => Ok(n),
        _ => Err("must be at least 1".into()),
    }
}

fn theta(v: &str) -> Result<f64, String> {
    match number::<f64>(v)? {
        t if t.is_finite() && t >= 0.0 => Ok(t),
        _ => Err("must be a finite number ≥ 0".into()),
    }
}

fn switch(_: &str) -> Result<bool, String> {
    Ok(true)
}

fn path(v: &str) -> Result<Option<String>, String> {
    Ok(Some(v.to_string()))
}

fn source_list(v: &str) -> Result<Vec<String>, String> {
    let labels: Vec<String> = v
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if labels.is_empty() {
        return Err("got an empty list (omit the flag for full closure)".into());
    }
    Ok(labels)
}

/// Looks `v` up, ignoring case, among the names of `all`.
fn by_name<T: Copy>(all: &[T], name: impl Fn(T) -> &'static str, v: &str) -> Result<T, String> {
    let found = all.iter().find(|&&t| name(t).eq_ignore_ascii_case(v));
    found.copied().ok_or_else(|| {
        let names: Vec<String> = all.iter().map(|&t| name(t).to_lowercase()).collect();
        format!("unknown name {v:?} (try {})", names.join(", "))
    })
}

fn algorithm(v: &str) -> Result<Option<Algorithm>, String> {
    by_name(&Algorithm::WITH_INDEX, Algorithm::name, v).map(Some)
}

fn stream(v: &str) -> Result<StreamKind, String> {
    by_name(&StreamKind::ALL, |k| k.name(), v)
}

const MIXES: [(&str, MixSpec); 3] = [
    ("reach-heavy", MixSpec::REACH_HEAVY),
    ("ptc-heavy", MixSpec::PTC_HEAVY),
    ("mixed", MixSpec::MIXED),
];

fn mix(v: &str) -> Result<MixSpec, String> {
    by_name(&MIXES, |m| m.0, v).map(|m| m.1)
}

fn mix_name(mix: &MixSpec) -> &'static str {
    MIXES.iter().find(|m| m.1 == *mix).map_or("custom", |m| m.0)
}

const ALGO_HELP: &str = "btc|hyb|bj|srch|spn|jkb|jkb2|seminaive|reachindex\n\
                         (omitted: the advisor picks)";
const BACKEND_HELP: &str = "storage backend: sim (counting), file (real files\n\
                            in a temp dir) or file:DIR";
const TIMING_HELP: &str = "also render a wall-clock span tree (a .spans.json\n\
                           file from `section --timing DIR`)";
const METRICS_HELP: &str = "write wall-clock metrics as Prometheus text to PATH\n\
                            (non-gating; stdout is identical with or without it)";

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
    pub backend: Backend,
}

impl Default for CliArgs {
    fn default() -> CliArgs {
        CliArgs {
            input: String::new(),
            sources: Vec::new(),
            algorithm: None,
            buffer: 20,
            print_answer: false,
            trace: None,
            backend: Backend::Sim,
        }
    }
}

impl Args for CliArgs {
    const HEADING: &'static str = "";
    const POSITIONAL: &'static str = "input file";
    const FLAGS: &'static [Flag<CliArgs>] = &[
        flag!(["-s", "--sources"] "A,B,..": "partial closure from these nodes (omitted: full)",
            sources = source_list),
        flag!(["-a", "--algo"] "NAME": ALGO_HELP,
            algorithm = algorithm),
        flag!(["-m", "--buffer"] "N": "buffer pool pages",
            buffer = at_least_one, shown),
        flag!(["--print-answer"] "": "print every (source, reachable) pair",
            print_answer = switch),
        flag!(["--trace"] "PATH": "write the run's event trace as JSONL to PATH",
            trace = path),
        flag!(["--backend"] "B": BACKEND_HELP,
            backend = Backend::parse, shown by Backend::name),
    ];
    fn input(&mut self) -> &mut String {
        &mut self.input
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

impl Default for AnalyzeArgs {
    fn default() -> AnalyzeArgs {
        AnalyzeArgs {
            input: String::new(),
            top_k: 10,
            interval: 65_536,
            timing: None,
        }
    }
}

impl Args for AnalyzeArgs {
    const HEADING: &'static str = "analyze options (folds a --trace file into a profile report):\n";
    const POSITIONAL: &'static str = "trace file";
    const FLAGS: &'static [Flag<AnalyzeArgs>] = &[
        flag!(["--top"] "K": "hot-page histogram size",
            top_k = number, shown),
        flag!(["--interval"] "N": "residency sampling interval, events",
            interval = at_least_one, shown),
        flag!(["--timing"] "PATH": TIMING_HELP,
            timing = path),
    ];
    fn input(&mut self) -> &mut String {
        &mut self.input
    }
}

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
    pub backend: Backend,
}

impl Default for UpdateArgs {
    fn default() -> UpdateArgs {
        UpdateArgs {
            input: String::new(),
            stream: StreamKind::Mixed,
            batches: 4,
            batch_size: 16,
            seed: 0xDA12_1994,
            buffer: 20,
            trace: None,
            backend: Backend::Sim,
        }
    }
}

impl Args for UpdateArgs {
    const HEADING: &'static str = "update options (maintains a materialized closure \
        under a seeded stream;\ninput must be acyclic):\n";
    const POSITIONAL: &'static str = "input file";
    const FLAGS: &'static [Flag<UpdateArgs>] = &[
        flag!(["--stream"] "KIND": "insert-only|delete-heavy|mixed",
            stream = stream, shown by StreamKind::name),
        flag!(["--batches"] "N": "update batches to apply",
            batches = at_least_one, shown),
        flag!(["--batch-size"] "K": "operations per batch",
            batch_size = at_least_one, shown),
        flag!(["--seed"] "S": "stream seed",
            seed = number, shown),
        flag!(["-m", "--buffer"] "N": "buffer pool pages",
            buffer = at_least_one, shown),
        flag!(["--trace"] "PATH": "write the maintenance runs' event trace as JSONL\nto PATH",
            trace = path),
        flag!(["--backend"] "B": BACKEND_HELP,
            backend = Backend::parse, shown by Backend::name),
    ];
    fn input(&mut self) -> &mut String {
        &mut self.input
    }
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
    pub mix: MixSpec,
    /// Zipf skew of query sources.
    pub theta: f64,
    /// Query-stream seed.
    pub seed: u64,
    /// Per-session buffer pool pages.
    pub buffer: usize,
    /// Hot-source cache rows per session (0 disables the cache).
    pub cache: usize,
    /// Update batches published mid-serve (0 = static snapshot).
    pub updates: usize,
    /// Operations per published batch.
    pub batch_size: usize,
    /// Write wall-clock metrics here as Prometheus text, refreshed
    /// periodically during the serve and finalized at the end.
    /// Strictly non-gating — the deterministic stdout summary is
    /// byte-identical with or without it.
    pub metrics: Option<String>,
    /// Storage backend.
    pub backend: Backend,
}

impl Default for ServeArgs {
    fn default() -> ServeArgs {
        ServeArgs {
            input: String::new(),
            workers: 4,
            clients: 4,
            per_client: 64,
            mix: MixSpec::MIXED,
            theta: 0.8,
            seed: tc_serve::CANONICAL_SERVE_SEED,
            buffer: 8,
            cache: 4,
            updates: 0,
            batch_size: 16,
            metrics: None,
            backend: Backend::Sim,
        }
    }
}

impl Args for ServeArgs {
    const HEADING: &'static str = "serve options (freeze the closure into a snapshot, \
        serve a seeded mix;\ninput must be acyclic):\n";
    const POSITIONAL: &'static str = "input file";
    const FLAGS: &'static [Flag<ServeArgs>] = &[
        flag!(["--workers"] "N": "worker threads",
            workers = at_least_one, shown),
        flag!(["--clients"] "N": "concurrent clients",
            clients = at_least_one, shown),
        flag!(["--per-client"] "N": "requests per client",
            per_client = at_least_one, shown),
        flag!(["--mix"] "M": "reach-heavy|ptc-heavy|mixed",
            mix = mix, shown by mix_name),
        flag!(["--theta"] "T": "Zipf skew of query sources",
            theta = theta, shown),
        flag!(["--seed"] "S": "query-stream seed",
            seed = number, shown),
        flag!(["--cache"] "N": "hot-source cache rows per session, 0 = off",
            cache = number, shown),
        flag!(["--updates"] "N": "update batches published mid-serve",
            updates = number, shown),
        flag!(["--batch-size"] "K": "operations per published batch",
            batch_size = at_least_one, shown),
        flag!(["--metrics"] "PATH": METRICS_HELP,
            metrics = path),
        flag!(["-m", "--buffer"] "N": "buffer pool pages per session",
            buffer = at_least_one, shown),
        flag!(["--backend"] "B": BACKEND_HELP,
            backend = Backend::parse, shown by Backend::name),
    ];
    fn input(&mut self) -> &mut String {
        &mut self.input
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
    pub fn parse(args: &[String]) -> Result<Command, CliError> {
        match args.first().map(String::as_str) {
            Some("analyze") => AnalyzeArgs::parse(&args[1..]).map(Command::Analyze),
            Some("update") => UpdateArgs::parse(&args[1..]).map(Command::Update),
            Some("serve") => ServeArgs::parse(&args[1..]).map(Command::Serve),
            _ => CliArgs::parse(args).map(Command::Run),
        }
    }
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

    /// A value `flag` accepts that differs from every default.
    fn sample<A>(flag: &Flag<A>) -> &'static str {
        match flag.value {
            "N" | "K" | "S" => "7",
            "T" => "1.5",
            "PATH" => "some.path",
            "A,B,.." => "x,y",
            "NAME" => "hyb",
            "KIND" => "delete-heavy",
            "M" => "ptc-heavy",
            "B" => "file",
            other => panic!("no sample value for placeholder {other:?}"),
        }
    }

    /// The top-level fields of `a`, one pretty-printed chunk each.
    fn fields<A: fmt::Debug>(a: &A) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for line in format!("{a:#?}").lines().skip(1) {
            match line.strip_prefix("    ") {
                Some(rest) if !rest.starts_with([' ', '}', ']', ')']) => out.push(line.into()),
                _ => out.last_mut().expect("a field line first").push_str(line),
            }
        }
        out
    }

    /// The usage lines of the flag spelled `name`, up to the next flag's.
    fn entry(block: &str, name: &str) -> String {
        let is_entry = |l: &str| l.trim_start().starts_with('-');
        let mut lines = block
            .lines()
            .skip_while(|l| !(is_entry(l) && l.contains(name)));
        let first = lines
            .next()
            .unwrap_or_else(|| panic!("no entry for {name}"));
        let rest = lines.take_while(|l| l.starts_with(' ') && !is_entry(l));
        let all: Vec<&str> = std::iter::once(first).chain(rest).collect();
        all.join("\n")
    }

    fn words(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// The contract of one subcommand's table, flag by flag.
    fn table_contract<A: Args + fmt::Debug + PartialEq>() {
        let mut block = String::new();
        A::usage_block(&mut block);
        let mut defaults = A::default();
        *defaults.input() = "in".into();
        assert_eq!(A::parse(&words(&["in"])).unwrap(), defaults);

        for flag in A::FLAGS {
            for &name in flag.names {
                assert!(block.contains(name), "{name} missing from:\n{block}");
                let got = match flag.value {
                    "" => A::parse(&words(&["in", name])),
                    _ => A::parse(&words(&["in", name, sample(flag)])),
                }
                .unwrap_or_else(|e| panic!("{name}: {e}"));
                let changed = fields(&got)
                    .into_iter()
                    .zip(fields(&defaults))
                    .filter(|(a, b)| a != b)
                    .count();
                assert_eq!(changed, 1, "{name} must set exactly one field: {got:?}");
                if flag.value.is_empty() {
                    continue;
                }
                // A missing value, and a flag where the value should be.
                let other = A::FLAGS[0].names[0];
                for args in [vec!["in", name], vec![name, other, "in"], vec![name, "-h"]] {
                    match A::parse(&words(&args)) {
                        Err(CliError::Bad(msg)) => {
                            let expect = format!("{name} needs {}", flag.value);
                            assert_eq!(msg, expect, "{args:?}");
                        }
                        other => panic!("{args:?} parsed as {other:?}"),
                    }
                }
            }
            if let Some(show) = flag.default {
                let line = format!("(default: {})", show(&A::default()));
                let entry = entry(&block, flag.names[flag.names.len() - 1]);
                assert!(entry.ends_with(&line), "no {line} in {entry:?}");
            }
        }

        let bad = |args: &[&str]| match A::parse(&words(args)) {
            Err(CliError::Bad(msg)) => msg,
            other => panic!("{args:?} parsed as {other:?}"),
        };
        assert!(bad(&["in", "--no-such-flag"]).starts_with("unknown flag --no-such-flag"));
        assert!(bad(&["in", "again"]).starts_with("only one "));
        assert!(bad(&[]).starts_with("missing "));
        for help in HELP {
            assert_eq!(A::parse(&words(&["in", help])), Err(CliError::Help));
        }
    }

    #[test]
    fn every_flag_of_every_table_keeps_the_contract() {
        table_contract::<CliArgs>();
        table_contract::<AnalyzeArgs>();
        table_contract::<UpdateArgs>();
        table_contract::<ServeArgs>();
        let flags = CliArgs::FLAGS.len()
            + AnalyzeArgs::FLAGS.len()
            + UpdateArgs::FLAGS.len()
            + ServeArgs::FLAGS.len();
        assert_eq!(flags, 28);
        assert_eq!(CliError::Help.to_string(), usage());
        // README carries `tcq --help` verbatim.
        assert!(include_str!("../README.md").contains(&usage()));
    }

    #[test]
    fn usage_shows_each_subcommands_own_buffer_default() {
        // Serve sessions default to 8 pages, the others to 20: the usage
        // text said "as above" for all three before it read the tables.
        let mut block = String::new();
        ServeArgs::usage_block(&mut block);
        assert!(
            entry(&block, "--buffer").ends_with("(default: 8)"),
            "{block}"
        );
        assert_eq!(ServeArgs::default().buffer, 8);
        block.clear();
        UpdateArgs::usage_block(&mut block);
        assert!(
            entry(&block, "--buffer").ends_with("(default: 20)"),
            "{block}"
        );
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // So the range check sees them, not the unknown-flag arm.
        let e = ServeArgs::parse(&words(&["g.txt", "--theta", "-1"])).unwrap_err();
        assert_eq!(
            e,
            CliError::Bad("--theta: must be a finite number ≥ 0".into())
        );
    }
}
