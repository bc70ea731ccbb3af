#!/usr/bin/env bash
# The benchmark's one command. From anywhere:
#
#   benchmark/run.sh                              every workload, untraced + traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
#
# Builds the harness (its own cargo workspace, offline) and runs it from
# the repository root, so every path the harness touches is relative to
# the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export PERFBENCH_RUSTC="${PERFBENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"
export PERFBENCH_COMMIT="${PERFBENCH_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
case "${1:-}" in
  compare) ;;
  *) set -- run "$@" ;;
esac
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
