#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the root of
# the checkout. Arguments go to the `bench` binary unchanged:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N]            every workload, then a traced run
#   benchmark/run.sh --aa K                K untraced runs -> benchmark/NOISE.json
#   benchmark/run.sh --smoke               tiny sizes, output shape checked
#   benchmark/run.sh compare OLD NEW       verdict per workload and metric
#
# The build goes to $CARGO_TARGET_DIR when set, else to benchmark/target.
# Build output goes to stderr, so the result stays the last line of stdout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/bench" "$@"
