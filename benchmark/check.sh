#!/usr/bin/env bash
# Everything that must hold for the benchmark package itself: formatting,
# lints, the helper unit tests (median, percentile, span self time, JSON,
# BENCHMARK.json against the tables in src/spec.rs) and the smoke tier,
# which runs all four workloads at 1/20 scale with every correctness check
# on and no bounds.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- --smoke --trace 1
