#!/usr/bin/env bash
# gate.sh: every acceptance command of this repository, written once.
#
#   ./gate.sh quick          format check, hermetic build, warning-free docs,
#                            tier-1 tests
#   ./gate.sh full [GROUP]   every suite at the elevated property-test case
#                            counts plus the byte comparisons (one group, or all)
#   ./gate.sh bench          the benchmark/ package's tests and smoke run
#
# .github/workflows/ci.yml is a matrix of these lines and the verify skill
# points here; neither repeats a command, so a suite added to a group is
# added to CI and to every session's checklist at once. NOT here: the
# structural "one X" rules (one lifecycle, one ledger, one front door,
# dependency hygiene, the help words). They are rows of
# tests/unwrap_audit.rs and run inside tier-1, where a rule that lived only
# in a script would never run. That file also checks that every
# `--test NAME [FILTER]` and `-p CRATE --lib FILTER` below names something
# that exists: a filter that matches nothing passes silently.
#
# Every cargo call is --offline: the workspace has no external crate, and a
# registry dependency that comes back must fail at resolution. Property
# suites read TC_DET_CASES (TC_DET_SEED replays a failure); nothing else
# here or in the tests reads the environment. Byte comparisons write both
# sides to target/gate/ and print their hashes first. PINS.md lists the
# pinned values these suites hold and the one way to re-pin them.
set -euo pipefail
cd "$(dirname "$0")"

OUT=target/gate
GROUPS_FULL="checks fault-matrix trace dynamic reach serve obs bench-baseline backend-matrix parallel-matrix"

t() { cargo test -q --offline "$@"; }

# Builds the experiment binaries the byte comparisons run.
harness() { cargo build --release --offline -p tc-bench --bins && mkdir -p "$OUT"; }

# section OUTFILE ARGS...: one `section` report into target/gate/.
section() { ./target/release/section "${@:2}" >"$OUT/$1"; }

# same A B WHY: two gate outputs must be equal byte for byte.
same() {
  sha256sum "$OUT/$1" "$OUT/$2"
  cmp "$OUT/$1" "$OUT/$2" || { echo "gate: $1 and $2 differ: $3" >&2; exit 1; }
}

# The quick tier, and the `checks` group of the full one.
g_checks() {
  cargo fmt --all --check
  cargo build --release --offline --workspace --examples
  # Every intra-doc link resolves and no public doc names a private item.
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline
  t --workspace
}

g_fault_matrix() {
  TC_DET_CASES=512 t --test fault_injection --test failure_modes --test golden_fault_trace --test run_lifecycle
  # The store retries every transfer: bare ones on each medium
  # (`store_contract`), and the bulk loads of a maintenance batch
  # (`transient_faults_are_invisible_to_maintenance_except_retries`,
  # run with the rest of `fault_injection` above). `store_contract` also
  # holds every fault kind to its one record, the store's event stream
  # (`every_fault_kind_reaches_the_stream_on_every_medium`).
  t --test store_contract
  TC_DET_CASES=256 t --test succ_split_props --test succ_run_props --test proptest_invariants
  TC_DET_CASES=256 t --test answer_collector_props
  # A user's edge file, byte-mutated: the graph it describes or a typed error.
  TC_DET_CASES=4096 t --test failure_modes mutated_edge_files_parse_or_fail_typed
  # A catalog that disagrees with its pages is a typed error naming the file.
  t -p tc-succ --lib verify_integrity_names_the_file_of_a_foreign_owner
  # A free mask is checked bit for bit, and a stale one is never trusted.
  t -p tc-succ --lib verify_integrity_compares_the_free_mask_bit_for_bit
  t -p tc-succ --lib a_stale_free_mask_is_page_full_and_changes_nothing
  # The stamped duplicate filter against a set model, across generation
  # wraps; a list read as stored words against the same list decoded.
  TC_DET_CASES=256 t -p tc-succ --lib stamped_set_matches_a_btreeset_model
  TC_DET_CASES=256 t -p tc-succ --lib collect_into_decodes_to_collect_entries
  # An index probe searches the page it fetched: the per-key search's
  # range, physical reads, and one request per run of same-page reads.
  TC_DET_CASES=1024 t --test decode_exactness probe_searches_the_index_page_it_fetched
  t --test unwrap_audit
}

g_trace() {
  export TC_DET_CASES=256
  # trace_overhead also holds the span recorder free when off and inert when on.
  t --test golden_trace --test event_schema_pin --test trace_replay --test trace_overhead
  t --test decode_exactness fnv
  t --test golden_profile --test profile_props
}

g_dynamic() {
  export TC_DET_CASES=256
  t --test dynamic_differential --test dynamic_props --test golden_dynamic
  # The only test in which descending node id is not a valid sweep order.
  t --test dynamic_props permuted_labels_match_the_oracle_or_refuse_the_cycle
  t --test model_based tuple_rows_refine_btreeset
  # The one dense bit set (a closure row is a BitRow) against a set model,
  # on and around the word boundary.
  TC_DET_CASES=1024 t -p tc-graph --lib bit_sets_match_a_btreeset_model
  # The initial closure is one reverse-topological pass: each of its rows
  # against a per-source DFS, and what a build materializes and a
  # snapshot serves against the oracle, at word-boundary n, permuted ids.
  TC_DET_CASES=1024 t -p tc-graph --lib dfs_closure_rows_match_per_source_dfs
  TC_DET_CASES=1024 t --test dynamic_props build_materializes_the_oracle_closure
  t -p tc-storage --lib extend_writes_what_repeated_push_writes
  t -p tc-core --lib cycle_closing_batch_is_rejected_whole
  t -p tc-core --lib op_naming_an_unknown_node_is_refused_whole
  t -p tc-core --lib freeze_returns_the_index_pages_when_capture_fails
  # A freeze reads the live store and writes its index into the capture.
  t -p tc-core --lib freeze_leaves_the_live_store_untouched
  # The closure file has no source column: the row table is the only map.
  t -p tc-core --lib tuples_round_trip_closures_with_empty_rows
  t -p tc-core --lib a_bad_closure_file_is_a_typed_error_naming_the_file
  # A batch's unions stay within the rows the oracle says it changes, and
  # arbitrary batches apply to the oracle or are refused with nothing moved.
  TC_DET_CASES=1024 t --test dynamic_work_bound
  TC_DET_CASES=1024 t -p tc-core --lib arbitrary_batches_apply_or_are_refused_unchanged
  harness
  section updates-sim.md updates --quick --backend sim
  section updates-file.md updates --quick --backend file
  same updates-sim.md updates-file.md "maintenance I/O accounting diverged between the backends"
}

g_reach() {
  export TC_DET_CASES=256
  t --test reach_differential --test reach_props
  # The labels file is chain-major: a lookup requests the one page of its
  # column holding its entry (none inside a component), and a path walk
  # toward v stays in column chain(v).
  t --test decode_exactness label_lookups_request_only_the_page_of_their_column_entry
  # The REACHINDEX engine reads each label column once, over its sources'
  # span, and a one-source query at most k + 1 label pages.
  t --test decode_exactness reachindex_reads_each_label_column_once_over_its_sources_span
  harness
  section reach-sim.md reachindex --quick --backend sim
  section reach-file.md reachindex --quick --backend file
  section reach-j2.md reachindex --quick --jobs 2
  same reach-sim.md reach-file.md "index I/O accounting diverged between the backends"
  same reach-sim.md reach-j2.md "a cell is reading shared state"
}

g_serve() {
  export TC_DET_CASES=256
  t --test serve_differential --test serve_props --test lend_props --test serve_snapshot --test golden_serve
  # One changed id, a swap, a trailing 0 or another shape: a new digest.
  TC_DET_CASES=1024 t -p tc-serve --lib reply_digest_sees_every_id
  # A session's ledger outlives a rebind: the per-kind pages sum to every
  # binding's reads, and the buffer counters are every pool's, added.
  t -p tc-serve --lib the_ledger_keeps_every_binding_across_a_rebind
}

g_obs() {
  export TC_DET_CASES=256
  t --test obs_determinism --test obs_props
  # The --timing flag's path through the CLI; golden_report holds the
  # library path on every section.
  harness
  section table2-plain.md table2 --quick
  section table2-timed.md table2 --quick --timing "$OUT/spans"
  same table2-plain.md table2-timed.md "wall-clock data leaked into the report"
}

# Tolerance is zero: every number in BENCH_5.json is deterministic.
g_bench_baseline() {
  harness
  ./target/release/bench_baseline --jobs 1 >"$OUT/bench-j1.json"
  ./target/release/bench_baseline --jobs 2 >"$OUT/bench-j2.json"
  same bench-j1.json bench-j2.json "a cell is reading shared state"
  ./target/release/bench_baseline --check BENCH_5.json
}

g_backend_matrix() {
  t --test file_store_recovery --test store_contract --test store_format_pin
  t -p tc-storage --lib checksum
  # The positional file, on the simulated disk and on a reopened real file.
  t -p tc-storage --lib value_file
  # A capture thaws into the in-memory medium and freezes back unchanged.
  t -p tc-storage --lib thaw_freeze_round_trips
  TC_DET_CASES=256 t --test file_store_recovery recovery_scan_matches_a_per_slot_oracle
  # A synced manifest, byte-mutated: the synced catalog or a typed refusal.
  TC_DET_CASES=1024 t --test file_store_recovery mutated_manifests_open_as_the_synced_catalog_or_fail_typed
  harness
  ./target/release/bench_baseline --backend file --check BENCH_5.json
}

g_parallel_matrix() {
  harness
  section report-j1.md all --quick --jobs 1
  section report-j2.md all --quick --jobs 2
  same report-j1.md report-j2.md "a cell is reading shared state (wall clock, shared RNG, scheduling order?)"
}

# benchmark/ is a package of its own that the workspace build never
# compiles; it reaches the program only through public items, so an API
# change must not silently break the referee of every performance claim.
# Nothing here gates on a timing.
bench() {
  cargo test --release --offline --manifest-path benchmark/Cargo.toml
  benchmark/run.sh --smoke
}

usage() {
  echo "usage: ./gate.sh quick | full [GROUP] | bench" >&2
  echo "groups: $GROUPS_FULL" >&2
  exit 2
}

# Each group runs in a subshell, so its TC_DET_CASES does not reach the next.
run_group() {
  echo "== gate: full $1" >&2
  ("g_${1//-/_}")
}

[ $# -le 2 ] || usage
case "${1:-} ${2:-}" in
  "quick ") g_checks ;;
  "bench ") bench ;;
  "full ") for g in $GROUPS_FULL; do run_group "$g"; done ;;
  "full "*)
    [[ " $GROUPS_FULL " == *" $2 "* ]] || usage
    run_group "$2" ;;
  *) usage ;;
esac
