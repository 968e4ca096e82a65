#!/usr/bin/env bash
# Builds the `subg` binary and the benchmark from source, then runs one
# benchmark pass. Arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload cli_find --seed 1 --seconds 25 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`); decks
# and span files go to `.bench_work`. Both sit in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet -p subgemini-cli >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --subg "$CARGO_TARGET_DIR/release/subg" "$@"
