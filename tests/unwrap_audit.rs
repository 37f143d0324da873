//! The source scan: rules that hold of the repository's text, checked
//! in tier-1 so that a rule is never something only a script runs.
//!
//! **Error-propagation audit: no `unwrap()`/`expect()` on run paths.**
//! The fault-injection layer is only as good as the error plumbing above
//! it: a single `unwrap()` between a page store and `Database::run` turns
//! a typed, injectable `StorageError` into a panic. Everything in
//! [`AUDITED`] must stay free of `unwrap()`/`expect()` outside
//! `#[cfg(test)]` modules; a new file in an audited directory is covered
//! the moment it exists.
//!
//! **Structural rules: one X.** Each [`RULES`] row says where a spelling,
//! or a kind of value, may occur. They keep a collapsed mechanism
//! collapsed: a second copy of the run envelope, the count ledger, the
//! retry loop, the worker pool, an argv loop, a hash function or a
//! pinned value fails here by name, not in a differential test after
//! the fact. Every row carries a fixture that must trip it.
//!
//! **The gate names what exists.** `gate.sh` is the one home of the
//! acceptance commands and `ci.yml` only calls it; a suite or test
//! filter it names that matches nothing would pass silently, so every
//! name is resolved against the tree.
//!
//! This file is the only home of these rules.

use std::fs;
use std::path::Path;

/// What is audited: `(group, directory or file, least files expected)`.
/// Directories are walked recursively. Each group is one `#[test]` below,
/// so a failure names the layer that regressed.
const AUDITED: &[(&str, &str, usize)] = &[
    // The physical page-transfer path: all of the store (core, media,
    // fault layer, layouts) and the buffer pool above it.
    ("io", "crates/storage/src", 18),
    ("io", "crates/buffer/src", 2),
    // Every generated tuple is a successor-list append: a catalog that
    // disagrees with its pages is a typed `PageFull`, not a panic.
    ("io", "crates/succ/src", 6),
    // The metered-run lifecycle hands the store back on every path; the
    // dynamic-maintenance and freeze layers run inside it or own the same
    // store/pool hand-over, and `UpdateStream` feeds them. The closure
    // file reads back bytes from a disk: a row that does not check is a
    // typed `CorruptFile`, not a panic.
    ("io", "crates/core/src/lifecycle.rs", 1),
    ("io", "crates/core/src/dynamic.rs", 1),
    ("io", "crates/core/src/closure_file", 2),
    ("io", "crates/core/src/snapshot.rs", 1),
    ("io", "crates/graph/src/update.rs", 1),
    // The experiment grid runs every cell through `run_cells`; a cell
    // failure must surface as a typed `ExpError` naming its coordinates,
    // never a panic that tears down the whole sweep.
    ("bench", "crates/bench/src", 15),
    // The one worker pool joins the threads of the experiment grid and
    // the serve loop and reassembles their results: a job's failure
    // comes back as that job's error, a job's panic with its payload.
    ("pool", "crates/det/src/par.rs", 1),
    // A Tracer rides inside every instrumented run: sink errors are
    // deferred (`JsonlSink::finish`) and mutex poisoning is recovered.
    ("trace", "crates/trace/src", 5),
    // A ProfileSink rides the same runs, and `tcq analyze` folds
    // untrusted JSONL from disk: typed `JsonlError`s, never a panic.
    ("profile", "crates/profile/src", 4),
    // The reachability index persists chains and labels through the same
    // store/pool plumbing, under the same fault-injection layer.
    ("reach", "crates/reach/src", 3),
    // Sessions run on worker threads over shared snapshot state: a panic
    // poisons the report mutexes of the whole serve; a read failure must
    // be a typed ServeError naming client and sequence.
    ("serve", "crates/serve/src", 5),
    // The span recorder and metrics registry must never panic the
    // deterministic run they only observe (`lock_unpoisoned`, typed
    // parse errors).
    ("obs", "crates/obs/src", 3),
    // The front door: argv, the edge-list file and every path on the
    // command line are outside input; a bad one is a one-line error and
    // exit 1, never a panic.
    ("cli", "src", 3),
];

/// Audited sites that are allowed to stay: compile-time-constant offset
/// conversions in the page accessors (documented as programming errors,
/// not data-dependent conditions). Format: (file, needle).
const ALLOWLIST: &[(&str, &str)] = &[("crates/storage/src/page.rs", "expect(\"in-page offset\")")];

/// CARGO_MANIFEST_DIR is the workspace root: the tests/ dir belongs to
/// the umbrella crate at the repository top level.
fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(repo().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// All `.rs` files under `path` (a file, or a directory walked into
/// `bin/`, `layout/`, ...), as repo-relative paths in sorted order.
fn rust_files_under(repo: &Path, path: &str) -> Vec<String> {
    if repo.join(path).is_file() {
        return vec![path.to_string()];
    }
    let mut stack = vec![repo.join(path)];
    let mut out = Vec::new();
    while let Some(d) = stack.pop() {
        let entries = fs::read_dir(&d).unwrap_or_else(|e| panic!("read_dir {}: {e}", d.display()));
        for entry in entries {
            let path = entry
                .unwrap_or_else(|e| panic!("read_dir entry: {e}"))
                .path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(repo)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .into_owned();
                out.push(rel);
            }
        }
    }
    out.sort();
    out
}

fn violations_in(rel: &str) -> Vec<String> {
    let text = read(rel);
    let mut out = Vec::new();
    let mut in_tests = false;
    for (no, line) in text.lines().enumerate() {
        // Test modules are the trailing section of every file in this
        // workspace; everything after the marker is exempt.
        if line.contains("#[cfg(test)]") {
            in_tests = true;
        }
        if in_tests {
            continue;
        }
        let code = line.trim_start();
        if code.starts_with("//") {
            continue; // doc examples and comments
        }
        if !code.contains(".unwrap()") && !code.contains(".expect(") {
            continue;
        }
        if ALLOWLIST
            .iter()
            .any(|&(f, needle)| f == rel && code.contains(needle))
        {
            continue;
        }
        out.push(format!("{rel}:{}: {}", no + 1, code));
    }
    out
}

/// Audits every [`AUDITED`] entry of `group`.
fn audit(group: &str) {
    let mut violations = Vec::new();
    for &(_, path, at_least) in AUDITED.iter().filter(|&&(g, ..)| g == group) {
        let files = rust_files_under(repo(), path);
        assert!(
            files.len() >= at_least,
            "{path}: audit walked only {} files — layout changed?",
            files.len()
        );
        for rel in &files {
            violations.extend(violations_in(rel));
        }
    }
    assert!(
        violations.is_empty(),
        "unwrap()/expect() on audited {group} run paths (propagate a typed error, \
         recover poisoned locks with into_inner, or add an audited ALLOWLIST \
         entry in tests/unwrap_audit.rs):\n{}",
        violations.join("\n")
    );
}

#[test]
fn io_paths_stay_free_of_unwrap_and_expect() {
    audit("io");
}

#[test]
fn bench_run_paths_stay_free_of_unwrap_and_expect() {
    audit("bench");
}

#[test]
fn pool_paths_stay_free_of_unwrap_and_expect() {
    audit("pool");
}

#[test]
fn trace_paths_stay_free_of_unwrap_and_expect() {
    audit("trace");
}

#[test]
fn profile_paths_stay_free_of_unwrap_and_expect() {
    audit("profile");
}

#[test]
fn reach_paths_stay_free_of_unwrap_and_expect() {
    audit("reach");
}

#[test]
fn serve_paths_stay_free_of_unwrap_and_expect() {
    audit("serve");
}

#[test]
fn obs_paths_stay_free_of_unwrap_and_expect() {
    audit("obs");
}

#[test]
fn cli_paths_stay_free_of_unwrap_and_expect() {
    audit("cli");
}

#[test]
fn allowlist_entries_still_exist() {
    // A stale allowlist hides future violations behind dead entries.
    for &(rel, needle) in ALLOWLIST {
        assert!(
            read(rel).contains(needle),
            "allowlist entry no longer present, remove it: {rel} `{needle}`"
        );
    }
}

// ---------------------------------------------------------------------
// Structural rules
// ---------------------------------------------------------------------

/// The texts a rule reads.
enum Scope {
    /// Every `.rs` file under these directories, this file excepted (it
    /// has to spell the needles).
    Rust(&'static [&'static str]),
    /// These files.
    Files(&'static [&'static str]),
    /// The root manifest and every workspace crate's.
    Manifests,
    /// What the `tcq` binary prints for `--help` (exit 0 required).
    Help,
}

/// What must hold of each needle over the scope's texts.
enum Want {
    /// It occurs in none of them.
    Nowhere,
    /// It occurs in some of these files and in no other.
    OnlyIn(&'static [&'static str]),
    /// It occurs in at most one of them.
    Once,
    /// It occurs in all of them.
    Everywhere,
}

/// What a rule looks for.
enum Needles {
    /// These spellings, verbatim.
    Spelled(&'static [&'static str]),
    /// Whatever this function finds in a text.
    Found(fn(&str) -> Vec<String>),
    /// Whatever this function finds in the texts taken together, each
    /// with the texts it names.
    Across(fn(&[(String, String)]) -> Vec<(String, Vec<&str>)>),
}

struct Rule {
    /// The mechanism the rule keeps single, and what to do instead of
    /// breaking it.
    name: &'static str,
    scope: Scope,
    want: Want,
    needles: Needles,
    /// One more text of the scope that must trip the rule.
    fixture: &'static str,
}

const EVERYWHERE: &[&str] = &["crates", "src", "tests", "examples"];

const RULES: &[Rule] = &[
    // The workspace is hermetic: zero external crates, so every build is
    // reproducible offline. `tc-det` supplies the PRNG and the
    // property-test harness.
    Rule {
        name: "dependency hygiene: no external crate (use crates/det)",
        scope: Scope::Manifests,
        want: Want::Nowhere,
        needles: Needles::Spelled(&["rand", "proptest", "criterion"]),
        fixture: "[dev-dependencies]\nproptest = \"1\"\n",
    },
    // The run envelope (arm, phase boundary, finish, metric assembly) is
    // written once, in `MeteredRun`.
    Rule {
        name: "one metered-run lifecycle: the envelope lives in lifecycle.rs",
        scope: Scope::Rust(&["crates/core/src"]),
        want: Want::OnlyIn(&["crates/core/src/lifecycle.rs"]),
        needles: Needles::Spelled(&[
            "Event::RunBegin",
            "Event::RunEnd",
            "Event::PhaseBegin",
            "Event::PhaseEnd",
            "clear_fault_plan",
            "estimate_seconds",
        ]),
        fixture: "tracer.emit(|| Event::RunBegin { algorithm });",
    },
    // The cost-metric suite is one struct, `tc_trace::Counts`...
    Rule {
        name: "one ledger: no mirror of the counter structs \
               (use tc_trace::{Counts, PhaseIo, BufferStats, Rect})",
        scope: Scope::Rust(EVERYWHERE),
        want: Want::Nowhere,
        needles: Needles::Spelled(&[
            "Replayed",
            "to_replayed",
            "LogicalCounts",
            "KindBufStats",
            "IoCounts",
        ]),
        fixture: "let r: Replayed = metrics.to_replayed();",
    },
    // ...and what an event counts is one match, `Counts::on`, which the
    // engine's `count_*` methods, replay and the profile fold all call.
    Rule {
        name: "one ledger: an Event match that counts lives in counts.rs",
        scope: Scope::Rust(EVERYWHERE),
        want: Want::OnlyIn(&["crates/trace/src/counts.rs"]),
        needles: Needles::Spelled(&["Event::Union =>"]),
        fixture: "match ev { Event::Union => self.unions += 1, _ => {} }",
    },
    // ...and so are the substrate's tables: the store and the buffer pool
    // count by folding the event they emit (`DiskStats::on`,
    // `BufferStats::on`, through each one's `note`). The fault plan keeps
    // no counters and no log: the store's `FaultInjected` event names the
    // kind, and is the one record of a fault.
    Rule {
        name: "one fold per counter: count by folding the emitted event \
               (note(ev) = stats.on(&ev) + emit); a run's faults are its \
               FaultInjected / CorruptionDetected events",
        scope: Scope::Rust(EVERYWHERE),
        want: Want::Nowhere,
        needles: Needles::Spelled(&[
            "stats.reads +=",
            "stats.hits +=",
            "stats.misses +=",
            "stats.evictions +=",
            "stats.flush_writes +=",
            "stats.retries +=",
            "FaultStats",
            "FaultEvent",
            "FaultOutcome",
            "into_events",
            ".fault_trace",
        ]),
        fixture: "self.stats.hits += 1; let log: Vec<FaultEvent> = plan.into_events();",
    },
    // A transient fault is retried in `Store`'s transfers, under the one
    // budget, whoever asked for the page: pool, direct pager or bulk load.
    // The tests reach exhaustion through the plan's streak cap.
    Rule {
        name: "one retry loop: transient faults are retried inside Store",
        scope: Scope::Rust(EVERYWHERE),
        want: Want::Nowhere,
        needles: Needles::Spelled(&["RetryPolicy", "set_retry_policy", "with_retries"]),
        fixture: "pool.set_retry_policy(RetryPolicy::default());",
    },
    // Every tcq flag is one entry of its subcommand's table in
    // src/cli.rs (parser and usage text both read it); the bench
    // binaries share `tc_bench::opts::flag_value`.
    Rule {
        name: "one front door: no hand-written argv loop \
               (add a Flag entry or use opts::flag_value)",
        scope: Scope::Rust(&["src", "crates"]),
        want: Want::Nowhere,
        needles: Needles::Spelled(&["while i < args.len()"]),
        fixture: "while i < args.len() { match args[i].as_str() {",
    },
    Rule {
        name: "one front door: tcq --help names every subcommand",
        scope: Scope::Help,
        want: Want::Everywhere,
        needles: Needles::Spelled(&["tcq analyze", "tcq update", "tcq serve"]),
        fixture: "usage: tcq <edges-file> [options]",
    },
    // The experiment grid and the serve loop run on
    // `tc_det::run_indexed`, so "the output does not depend on the worker
    // count" rests on one function, not on each loop's own cursor,
    // stop flag and reassembly.
    Rule {
        name: "one worker pool: threads are spawned in tc_det::par \
               (hand run_indexed one job per index)",
        scope: Scope::Rust(&["crates"]),
        want: Want::OnlyIn(&["crates/det/src/par.rs"]),
        needles: Needles::Spelled(&["thread::scope("]),
        fixture: "let out = std::thread::scope(|s| s.spawn(|| drain(cursor)).join());",
    },
    // A set of node ids as words of bits — a closure row, a source cover,
    // a dense pair set — is a `BitRow` or a `BitMatrix` row, so the word
    // math, the row OR and the ascending readout are written once.
    Rule {
        name: "one bit set: dense bit sets are tc_graph::{BitRow, BitMatrix}",
        scope: Scope::Rust(EVERYWHERE),
        want: Want::OnlyIn(&["crates/graph/src/bitmat.rs"]),
        needles: Needles::Spelled(&["div_ceil(64)"]),
        fixture: "let words = n.div_ceil(64);",
    },
    // The per-source DFS is the tests' oracle. A closure the library
    // materializes comes from one reverse-topological pass
    // (`closure::dfs_closure`), so a build path cannot drift back to one
    // DFS per source; the engine's `validate` is the one library caller.
    Rule {
        name: "per-source traversal is the oracle's: successors_of / \
               ptc_answer outside tests only in closure.rs and the \
               engine's validate (use closure::dfs_closure)",
        scope: Scope::Rust(&["crates", "src"]),
        want: Want::OnlyIn(&["crates/graph/src/closure.rs", "crates/core/src/engine.rs"]),
        needles: Needles::Found(per_source_traversals),
        fixture: "let row = closure::successors_of(graph, s);",
    },
    // A pinned value has one home (PINS.md's table): a suite that needs
    // to show an observer or a job count leaves a pin alone compares an
    // armed run with an unarmed one, never with a pasted copy.
    Rule {
        name: "one home per pin: a 16-hex-digit literal is written in one \
               test file (compare with an unarmed run instead of a copy)",
        scope: Scope::Rust(&["tests"]),
        want: Want::Once,
        needles: Needles::Found(long_hex_literals),
        fixture: include_str!("golden_trace.rs"),
    },
    // FNV-1a is `tc_trace::Fnv` and SplitMix64 is `tc_det::splitmix64`;
    // their constants appear nowhere else in the crates.
    Rule {
        name: "one home per hash: FNV-1a is tc_trace::Fnv, SplitMix64 is \
               tc_det::splitmix64",
        scope: Scope::Rust(&["crates", "src"]),
        want: Want::OnlyIn(&["crates/trace/src/digest.rs", "crates/det/src/rng.rs"]),
        needles: Needles::Found(hash_constants),
        fixture: "h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);",
    },
    // A measured wall time is written once, where it was measured
    // (EXPERIMENTS.md, CHANGES.md, benchmark/README.md); the overview
    // documents describe mechanisms and link there.
    Rule {
        name: "one home per measurement: no wall time in README.md or \
               DESIGN.md (link EXPERIMENTS.md, CHANGES.md or \
               benchmark/README.md)",
        scope: Scope::Files(&["README.md", "DESIGN.md"]),
        want: Want::Nowhere,
        needles: Needles::Found(wall_times),
        fixture: "The full closure takes ~183 ms on two cores.",
    },
    // A value page holds as many values as its file's width allows, and
    // the width follows from the bound the file's writer declares. The
    // capacities are one table in the value layout; a reader asks its
    // file (`ValueFile::values_per_page`), so a fixed 512 cannot return.
    Rule {
        name: "one home for value-page capacity: a value file's slots per \
               page follow from its bound (ask ValueFile::values_per_page)",
        scope: Scope::Rust(&["crates", "src", "examples"]),
        want: Want::OnlyIn(&["crates/storage/src/layout/value.rs"]),
        needles: Needles::Spelled(&["VALUES_PER_PAGE", "PAGE_SIZE / 4"]),
        fixture: "let page = at / VALUES_PER_PAGE; let slots = PAGE_SIZE / 4;",
    },
    // A public function is a promise to a caller. One that no other file
    // names — no crate, no test, no example, not the benchmark — is
    // either dead or private in all but name.
    Rule {
        name: "no orphan API: a pub fn under crates/*/src is named outside \
               its own file (delete it, make it private, or list it in \
               UNCALLED_PUB_FNS with the reason)",
        scope: Scope::Rust(&["crates", "src", "tests", "examples", "benchmark/src"]),
        want: Want::Nowhere,
        needles: Needles::Across(uncalled_pub_fns),
        fixture: "pub fn nothing_else_names_this() {}",
    },
];

/// Public functions that no other file names, kept on purpose:
/// `(file, name, why)`.
const UNCALLED_PUB_FNS: &[(&str, &str, &str)] = &[];

/// The lines of `text` that are code: up to the test section, without
/// comments and without `pub use` re-exports (a re-export names a
/// function without calling it).
fn code_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut in_use = false;
    text.lines()
        .take_while(|line| !line.contains("#[cfg(test)]"))
        .filter(move |line| {
            let code = line.trim_start();
            in_use |= code.starts_with("pub use ");
            let keep = !in_use && !code.starts_with("//");
            in_use &= !code.contains(';');
            keep
        })
}

/// Every identifier spelled in `text`'s code lines, outside string and
/// character literals and comments: a name that occurs only in a
/// message calls nothing.
fn identifiers(text: &str) -> std::collections::HashSet<String> {
    let code = code_lines(text).collect::<Vec<_>>().join("\n");
    without_literals(&code)
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|word| !word.is_empty())
        .map(str::to_string)
        .collect()
}

/// `code` with each string literal (plain, byte or raw), character
/// literal and comment replaced by a space.
fn without_literals(code: &str) -> String {
    let mut out = String::with_capacity(code.len());
    let (mut i, mut kept) = (0, 0);
    while i < code.len() {
        match literal_end(code, i) {
            Some(end) => {
                out.push_str(&code[kept..i]);
                out.push(' ');
                (i, kept) = (end, end);
            }
            None => i += 1,
        }
    }
    out.push_str(&code[kept..]);
    out
}

/// Where the literal or comment that starts at byte `i` of `code` ends
/// (exclusive; a line comment stops before its newline), or `None` if
/// none starts there. A `'` that does not close a one-character literal
/// starts a lifetime or a label.
fn literal_end(code: &str, i: usize) -> Option<usize> {
    let b = code.as_bytes();
    let word = |at: usize| b[at].is_ascii_alphanumeric() || b[at] == b'_';
    let starts_word = |at: usize| at == 0 || !word(at - 1);
    // The end of the first `close` at or after `from`, or of the text.
    let past = |from: usize, close: &[u8]| {
        (b[from.min(b.len())..].windows(close.len()))
            .position(|w| w == close)
            .map_or(b.len(), |at| from + at + close.len())
    };
    match b[i] {
        b'/' if b.get(i + 1) == Some(&b'/') => Some(
            b[i..]
                .iter()
                .position(|&c| c == b'\n')
                .map_or(b.len(), |at| i + at),
        ),
        b'/' if b.get(i + 1) == Some(&b'*') => Some(past(i + 2, b"*/")),
        b'r' if starts_word(i) || (i > 0 && b[i - 1] == b'b' && starts_word(i - 1)) => {
            let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
            let close: Vec<u8> = std::iter::once(b'"')
                .chain(std::iter::repeat_n(b'#', hashes))
                .collect();
            (b.get(i + 1 + hashes) == Some(&b'"')).then(|| past(i + 2 + hashes, &close))
        }
        b'"' => {
            let mut j = i + 1;
            while j < b.len() && b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            Some((j + 1).min(b.len()))
        }
        b'\'' => {
            // An escape runs to the next quote after its first character.
            let close = match b.get(i + 1)? {
                b'\\' => i + 3 + b.get(i + 3..)?.iter().position(|&c| c == b'\'')?,
                _ => i + 1 + code[i + 1..].chars().next()?.len_utf8(),
            };
            (b.get(close) == Some(&b'\'')).then_some(close + 1)
        }
        _ => None,
    }
}

/// Each `pub fn` defined in a crate's source (any text outside the
/// umbrella crate's `src/`, a `tests/` or `examples/` tree and the
/// benchmark) that no other text's code names, as `pub fn NAME` with
/// its file; and each [`UNCALLED_PUB_FNS`] entry that is no longer
/// such a function.
fn uncalled_pub_fns(texts: &[(String, String)]) -> Vec<(String, Vec<&str>)> {
    let names: Vec<_> = texts.iter().map(|(_, text)| identifiers(text)).collect();
    let named_elsewhere = |i: usize, name: &str| {
        (names.iter().enumerate()).any(|(j, names)| j != i && names.contains(name))
    };
    let defines_api = |file: &str| {
        !file.contains("tests/")
            && !["src/", "examples/", "benchmark/"]
                .iter()
                .any(|r| file.starts_with(r))
    };
    let mut out = Vec::new();
    let mut allowed_seen = Vec::new();
    for (i, (file, text)) in texts.iter().enumerate() {
        if !defines_api(file) {
            continue;
        }
        for line in code_lines(text) {
            let code = line.trim_start();
            let Some(rest) = code
                .strip_prefix("pub fn ")
                .or_else(|| code.strip_prefix("pub const fn "))
            else {
                continue;
            };
            let name = rest
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .next()
                .unwrap_or_default();
            if named_elsewhere(i, name) {
                continue;
            }
            if UNCALLED_PUB_FNS
                .iter()
                .any(|&(f, n, _)| f == file && n == name)
            {
                allowed_seen.push((file.as_str(), name));
            } else {
                out.push((format!("pub fn {name}"), vec![file.as_str()]));
            }
        }
    }
    for &(file, name, _) in UNCALLED_PUB_FNS {
        if !allowed_seen.contains(&(file, name)) {
            let stale = format!("UNCALLED_PUB_FNS entry {name}: no uncalled pub fn of that name");
            out.push((stale, vec![file]));
        }
    }
    out
}

/// The per-source oracle calls in `text`'s code lines.
fn per_source_traversals(text: &str) -> Vec<String> {
    ["successors_of(", "ptc_answer("]
        .into_iter()
        .filter(|call| code_lines(text).any(|line| line.contains(call)))
        .map(str::to_string)
        .collect()
}

/// Every hex literal of 16 digits or more, underscores stripped and
/// case folded, so `0xAB_CD..` and `0xabcd..` are one value.
fn long_hex_literals(text: &str) -> Vec<String> {
    text.split("0x")
        .skip(1)
        .map(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
                .filter(|c| *c != '_')
                .collect::<String>()
                .to_ascii_lowercase()
        })
        .filter(|digits| digits.len() >= 16)
        .map(|digits| format!("0x{digits}"))
        .collect()
}

/// The FNV-1a prime and SplitMix64's two finalizer multipliers, found
/// in any spelling.
fn hash_constants(text: &str) -> Vec<String> {
    let folded = text.replace('_', "").to_ascii_lowercase();
    ["100000001b3", "bf58476d1ce4e5b9", "94d049bb133111eb"]
        .into_iter()
        .filter(|c| folded.contains(c))
        .map(|c| format!("0x{c}"))
        .collect()
}

/// Times the paper or the code defines, which a document may state:
/// the estimated cost of an I/O and of a tuple-level operation, the
/// accounted retry backoff and the metrics-file refresh period.
const DEFINED_TIMES: &[&str] = &[
    "20 ms per I/O",
    "20 ms/IO",
    "1 µs per tuple-level operation",
    "backoff of 1 ms",
    "every 200 ms",
];

/// Every number followed by ms, µs, us or ns, outside [`DEFINED_TIMES`].
fn wall_times(text: &str) -> Vec<String> {
    let mut text = text.to_string();
    for defined in DEFINED_TIMES {
        text = text.replace(defined, "");
    }
    let mut out = Vec::new();
    for unit in ["ms", "µs", "μs", "us", "ns"] {
        for (at, _) in text.match_indices(unit) {
            let after = text[at + unit.len()..].chars().next();
            if after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let before = text[..at].trim_end_matches([' ', '\u{a0}', '\u{202f}']);
            let number =
                before.trim_end_matches(|c: char| c.is_ascii_digit() || c == '.' || c == ',');
            let digits = before[number.len()..].trim_start_matches([',', '.']);
            if digits.is_empty() || number.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                continue;
            }
            out.push(format!("{digits} {unit}"));
        }
    }
    out
}

const THIS_FILE: &str = "tests/unwrap_audit.rs";

/// The workspace's crates as `(package name, directory)`.
fn workspace_crates() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(repo().join("crates")).expect("read crates/") {
        let dir = format!(
            "crates/{}",
            entry.expect("crates/ entry").file_name().to_string_lossy()
        );
        let manifest = read(&format!("{dir}/Cargo.toml"));
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .unwrap_or_else(|| panic!("{dir}/Cargo.toml has no package name"));
        out.push((name.to_string(), dir));
    }
    out.sort();
    out
}

/// The `(name, text)` pairs a scope covers.
fn texts(scope: &Scope) -> Vec<(String, String)> {
    let paths: Vec<String> = match scope {
        Scope::Rust(roots) => roots
            .iter()
            .flat_map(|root| rust_files_under(repo(), root))
            .filter(|rel| rel != THIS_FILE)
            .collect(),
        Scope::Files(files) => files.iter().map(|f| f.to_string()).collect(),
        Scope::Manifests => std::iter::once("Cargo.toml".to_string())
            .chain(
                workspace_crates()
                    .into_iter()
                    .map(|(_, dir)| format!("{dir}/Cargo.toml")),
            )
            .collect(),
        Scope::Help => {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_tcq"))
                .arg("--help")
                .output()
                .expect("run tcq --help");
            assert!(out.status.success(), "tcq --help exited {}", out.status);
            let text = String::from_utf8_lossy(&out.stderr).into_owned();
            return vec![("tcq --help".to_string(), text)];
        }
    };
    paths
        .into_iter()
        .map(|rel| {
            let text = read(&rel);
            (rel, text)
        })
        .collect()
}

/// Each needle of `rule` with the texts it occurs in.
fn hits<'t>(rule: &Rule, texts: &'t [(String, String)]) -> Vec<(String, Vec<&'t str>)> {
    match rule.needles {
        Needles::Spelled(needles) => needles
            .iter()
            .map(|needle| {
                let hits = texts
                    .iter()
                    .filter(|(_, text)| text.contains(needle))
                    .map(|(name, _)| name.as_str())
                    .collect();
                (needle.to_string(), hits)
            })
            .collect(),
        Needles::Found(find) => {
            let mut found = std::collections::BTreeMap::<String, Vec<&str>>::new();
            for (name, text) in texts {
                for needle in find(text) {
                    let hits = found.entry(needle).or_default();
                    if hits.last() != Some(&name.as_str()) {
                        hits.push(name);
                    }
                }
            }
            found.into_iter().collect()
        }
        Needles::Across(find) => find(texts),
    }
}

/// One line per needle of `rule` that is not where it should be.
fn broken(rule: &Rule, texts: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for (needle, hits) in hits(rule, texts) {
        let ok = match rule.want {
            Want::Nowhere => hits.is_empty(),
            Want::OnlyIn(homes) => !hits.is_empty() && hits.iter().all(|h| homes.contains(h)),
            Want::Once => hits.len() <= 1,
            Want::Everywhere => hits.len() == texts.len(),
        };
        if !ok {
            out.push(format!("{}: `{needle}` occurs in {hits:?}", rule.name));
        }
    }
    out
}

#[test]
fn structural_rules_hold_and_each_fires_on_its_fixture() {
    let mut violations = Vec::new();
    for rule in RULES {
        let mut texts = texts(&rule.scope);
        assert!(!texts.is_empty(), "{}: nothing scanned", rule.name);
        let on_tree = broken(rule, &texts);
        // The same tree with the fixture added must trip the rule: a row
        // that cannot fail is not a rule.
        texts.push(("<fixture>".to_string(), rule.fixture.to_string()));
        assert!(
            broken(rule, &texts) != on_tree,
            "{}: the fixture does not trip the rule",
            rule.name
        );
        violations.extend(on_tree);
    }
    assert!(
        violations.is_empty(),
        "structural rules broken (tests/unwrap_audit.rs RULES):\n{}",
        violations.join("\n")
    );
}

#[test]
fn a_name_spelled_only_inside_a_literal_or_comment_calls_nothing() {
    // The orphan rule's own fixture has no second text; this one's only
    // other spelling of the name is in a string, a raw string, a byte
    // string or a comment, beside character literals and a lifetime that
    // must not open or close one.
    let texts = |caller: &str| {
        vec![
            (
                "crates/a/src/lib.rs".to_string(),
                "pub fn bounded() {}\n".to_string(),
            ),
            ("tests/b.rs".to_string(), caller.to_string()),
        ]
    };
    let quoted = "fn f<'a>(x: &'a str) -> char {\n\
                  assert!(ok, \"finite labels bounded by \\\"entries\\\"\");\n\
                  let q = '\"'; let e = '\\''; let r = r#\"bounded\"#;\n\
                  let b = b\"bounded\"; /* bounded */ let u = 'µ'; // bounded\n\
                  q }\n";
    let only_quoted = texts(quoted);
    let orphans = uncalled_pub_fns(&only_quoted);
    assert_eq!(orphans.len(), 1, "{orphans:?}");
    assert_eq!(orphans[0].0, "pub fn bounded");
    let called = format!("{quoted}fn g() {{ bounded() }}\n");
    assert!(uncalled_pub_fns(&texts(&called)).is_empty());
}

// ---------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------

/// Whether some `fn` under `files` has `filter` in its name (what
/// `cargo test FILTER` matches on).
fn some_fn_matches(files: &[String], filter: &str) -> bool {
    files.iter().any(|rel| {
        read(rel).lines().any(|l| {
            l.trim_start()
                .strip_prefix("fn ")
                .is_some_and(|rest| rest.split('(').next().is_some_and(|n| n.contains(filter)))
        })
    })
}

/// Every suite, crate and test filter a gate script names that does not
/// resolve: `--test NAME [FILTER]` needs `tests/NAME.rs` (with a `fn`
/// matching FILTER), `-p CRATE --lib FILTER` a workspace crate with such
/// a `fn` under its `src/`.
fn unresolved_gate_names(script: &str) -> Vec<String> {
    let crates = workspace_crates();
    let mut out = Vec::new();
    for line in script.lines().filter(|l| !l.trim_start().starts_with('#')) {
        let toks: Vec<&str> = line.split_whitespace().collect();
        // Test runs go through the script's `t` wrapper (or spell
        // `cargo test` out); `-p` means something else to other commands.
        if !toks.contains(&"t") && !line.contains("cargo test") {
            continue;
        }
        let filter_at = |i: usize| toks.get(i).copied().filter(|t| !t.starts_with('-'));
        for (i, &tok) in toks.iter().enumerate() {
            match (tok, toks.get(i + 1)) {
                ("--test", Some(&suite)) => {
                    let rel = format!("tests/{suite}.rs");
                    if !repo().join(&rel).is_file() {
                        out.push(format!("--test {suite}: no {rel}"));
                    } else if let Some(f) = filter_at(i + 2) {
                        if !some_fn_matches(std::slice::from_ref(&rel), f) {
                            out.push(format!("--test {suite} {f}: no such fn in {rel}"));
                        }
                    }
                }
                ("-p", Some(&krate)) => {
                    let Some((_, dir)) = crates.iter().find(|(name, _)| name == krate) else {
                        out.push(format!("-p {krate}: no such workspace crate"));
                        continue;
                    };
                    let filter = (toks.get(i + 2) == Some(&"--lib"))
                        .then(|| filter_at(i + 3))
                        .flatten();
                    let Some(f) = filter else {
                        out.push(format!("-p {krate}: expected `--lib FILTER` after it"));
                        continue;
                    };
                    let src = rust_files_under(repo(), &format!("{dir}/src"));
                    if !some_fn_matches(&src, f) {
                        out.push(format!("-p {krate} --lib {f}: no such fn in {dir}/src"));
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[test]
fn the_gate_names_only_suites_and_tests_that_exist() {
    let gate = read("gate.sh");
    assert!(
        gate.matches("--test ").count() >= 30 && gate.contains(" -p tc-core --lib "),
        "gate.sh no longer spells its suites as `--test NAME` / `-p CRATE --lib FILTER`"
    );
    let unresolved = unresolved_gate_names(&gate);
    assert!(
        unresolved.is_empty(),
        "gate.sh names suites or tests that do not exist (renamed? a filter \
         that matches nothing passes silently):\n{}",
        unresolved.join("\n")
    );
    // The resolver itself fires on each kind of dangling name.
    let dangling = "t --test golden_seed --test no_such_suite\n\
                    t --test golden_seed no_such_fn\n\
                    t -p tc-core --lib no_such_fn\n\
                    t -p tc-core no_such_fn\n\
                    t -p no-such-crate --lib checksum\n\
                    # t --test commented_out\n";
    assert_eq!(unresolved_gate_names(dangling).len(), 5, "{dangling}");
}

/// The commands of a workflow file that are not a call of the gate.
fn foreign_ci_commands(workflow: &str) -> Vec<String> {
    workflow
        .lines()
        .filter_map(|l| l.trim_start().trim_start_matches("- ").strip_prefix("run:"))
        .map(str::trim)
        .filter(|cmd| {
            !cmd.starts_with("./gate.sh ") && *cmd != "rustc --version && cargo --version"
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn ci_runs_nothing_but_the_gate() {
    // A command written into the workflow is one no session can run;
    // `run: |` opens a block of them.
    let foreign = foreign_ci_commands(&read(".github/workflows/ci.yml"));
    assert!(
        foreign.is_empty(),
        "ci.yml runs commands of its own (move them into gate.sh): {foreign:?}"
    );
    let inline = "      - run: |\n          cargo test -q\n      - run: cargo fmt --check\n";
    assert_eq!(foreign_ci_commands(inline), ["|", "cargo fmt --check"]);
}
