#!/usr/bin/env bash
# The one command: builds the benchmark, runs every workload untraced
# (end-to-end metrics) and then traced (per-layer metrics, span logs),
# checks every output, prints one line per metric and writes
# benchmark/out/results.json. Exits non-zero if any output was wrong.
#
#   benchmark/run.sh [--seed N] [--runs R] [--seconds S] [--out FILE]
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all "$@"
