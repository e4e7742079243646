#!/usr/bin/env bash
# Smoke check: all five workloads, traced and untraced, in --quick mode
# (1 s windows, 400 training items, 1,000 rules). Fails on any failed
# operation, oracle mismatch or missing metric name. Ready for CI.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
    run-all --quick --out benchmark/out/check
