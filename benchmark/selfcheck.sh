#!/usr/bin/env bash
# The A/A gate: measures every workload twice on the same tree and fails
# when any end-to-end metric differs by more than the bound BENCHMARK.json
# sets for it — the benchmark must agree with itself before it judges a
# change. `--quick` runs about 5 s per workload and prints the differences
# without gating them (smoke use).
#
#   benchmark/selfcheck.sh [--quick] [--seed S]
set -euo pipefail
# The repo root holds BENCHMARK.json and .cargo/config.toml (target-cpu).
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- --selfcheck "$@"
