//! Error-propagation audit: no `unwrap()`/`expect()` on run paths.
//!
//! The fault-injection layer is only as good as the error plumbing above
//! it: a single `unwrap()` between a page store and `Database::run` turns
//! a typed, injectable `StorageError` into a panic. This test freezes the
//! audit: everything in [`AUDITED`] must stay free of
//! `unwrap()`/`expect()` outside `#[cfg(test)]` modules. It is the only
//! home of the rule (CI runs it with the rest of the suite); a new file
//! in an audited directory is covered the moment it exists.

use std::fs;
use std::path::Path;

/// What is audited: `(group, directory or file, least files expected)`.
/// Directories are walked recursively. Each group is one `#[test]` below,
/// so a failure names the layer that regressed.
const AUDITED: &[(&str, &str, usize)] = &[
    // The physical page-transfer path: all of the store (core, media,
    // fault layer, layouts) and the buffer pool above it.
    ("io", "crates/storage/src", 16),
    ("io", "crates/buffer/src", 2),
    // Every generated tuple is a successor-list append: a catalog that
    // disagrees with its pages is a typed `PageFull`, not a panic.
    ("io", "crates/succ/src", 7),
    // The metered-run lifecycle hands the store back on every path; the
    // dynamic-maintenance and freeze layers run inside it or own the same
    // store/pool hand-over, and `UpdateStream` feeds them.
    ("io", "crates/core/src/lifecycle.rs", 1),
    ("io", "crates/core/src/dynamic.rs", 1),
    ("io", "crates/core/src/snapshot.rs", 1),
    ("io", "crates/graph/src/update.rs", 1),
    // The experiment scheduler joins worker threads and reassembles cell
    // results; a cell failure must surface as a typed `ExpError` naming
    // its coordinates, never a panic that tears down the whole sweep.
    ("bench", "crates/bench/src", 15),
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

fn violations_in(repo: &Path, rel: &str) -> Vec<String> {
    let text = fs::read_to_string(repo.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"));
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
    // CARGO_MANIFEST_DIR is the workspace root: the tests/ dir belongs
    // to the umbrella crate at the repository top level.
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    for &(_, path, at_least) in AUDITED.iter().filter(|&&(g, ..)| g == group) {
        let files = rust_files_under(repo, path);
        assert!(
            files.len() >= at_least,
            "{path}: audit walked only {} files — layout changed?",
            files.len()
        );
        for rel in &files {
            violations.extend(violations_in(repo, rel));
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
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    for &(rel, needle) in ALLOWLIST {
        let text = fs::read_to_string(repo.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        assert!(
            text.contains(needle),
            "allowlist entry no longer present, remove it: {rel} `{needle}`"
        );
    }
}
