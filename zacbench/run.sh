#!/usr/bin/env bash
# Builds zac-serve and the benchmark from source, then runs one benchmark
# invocation. Run from the repository root:
#
#   bash zacbench/run.sh --workload cold_fresh --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail

target_dir="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target_dir"

cargo build --release --offline --quiet -p zac-serve --bin zac-serve 1>&2
cargo build --release --offline --quiet --manifest-path zacbench/Cargo.toml 1>&2

exec "$target_dir/release/zacbench" --server "$target_dir/release/zac-serve" "$@"
