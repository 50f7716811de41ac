#!/usr/bin/env bash
# Full reproduction pass: tests, the paper-table regeneration, the
# machine-checked reproduction gate, and a quick pass of the benchmark
# (benchmark/README.md). Mirrors what EXPERIMENTS.md records.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== 1/4 workspace tests =="
cargo test --workspace --release

echo "== 2/4 paper tables (full output) =="
cargo run --release -p stap-bench --bin repro

echo "== 3/4 reproduction gate =="
cargo run --release -p stap-bench --bin repro -- check

echo "== 4/4 benchmark (quick, ungated) =="
benchmark/selfcheck.sh --quick

echo "reproduction complete."
