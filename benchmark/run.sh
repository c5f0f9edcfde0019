#!/usr/bin/env bash
# Builds both benchmark binaries from source, then hands its arguments to
# the timed one (which starts the trace binary itself for `--trace 1`).
#
#   benchmark/run.sh --workload pkd_hetero --seed 707 --seconds 12 --trace 0
#   benchmark/run.sh all --seed 707        # every workload, every metric
#   benchmark/run.sh trace fleet_cow       # one traced run
#   benchmark/run.sh --twice [all options] # two full sets, then compare:
#                                          # fails if any metric disagrees
#                                          # beyond its bound
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/fedpkd-benchmark"

if [[ "${1:-}" == "--twice" ]]; then
    shift
    mkdir -p benchmark/out
    "$bin" all --out benchmark/out/first.json "$@"
    "$bin" all --out benchmark/out/second.json "$@"
    exec "$bin" compare benchmark/out/first.json benchmark/out/second.json
fi
exec "$bin" "$@"
