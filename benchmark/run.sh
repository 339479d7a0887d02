#!/usr/bin/env bash
# Builds the benchmark (Release, lock-rank checks off) and runs it.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#       one run; the last line of stdout is the JSON result
#   benchmark/run.sh --repeat N [--seed S | --seed-sweep] [--trace 0|1]
#                    [--out FILE]
#       stability harness: every workload at run_seconds (see harness.py)
#   benchmark/run.sh --check
#       smoke mode: every workload, scaled down, end-to-end and traced;
#       fails when a run fails or a metric named in BENCHMARK.json is missing
#
# The build lives in $CARGO_TARGET_DIR/benchmark (default .bench_build/
# benchmark under the repository root).  Build output goes to stderr so
# stdout carries only the run's own report.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-$root/.bench_build}/benchmark"

generator=()
if command -v ninja >/dev/null 2>&1 && [[ ! -f "$build/Makefile" ]]; then
  generator=(-G Ninja)
fi
cmake -S "$here" -B "$build" "${generator[@]}" >&2
cmake --build "$build" -j "$(nproc)" >&2

case "${1:-}" in
  --repeat|--check)
    exec python3 "$here/harness.py" --binary "$build/propeller_bench" "$@" ;;
  *)
    exec "$build/propeller_bench" "$@" ;;
esac
