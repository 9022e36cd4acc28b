#!/usr/bin/env bash
# Compares two trajectory files written by scripts/bench_run.sh against
# the end-to-end metrics and bounds of BENCHMARK.json:
#
#   scripts/bench_diff.sh BENCH_16.json BENCH_17.json
#
# Per workload it prints each metric's median and min-max range over the
# seeds on both sides, the change in percent and the bound. It exits
# non-zero when a metric is worse by more than its bound, when the new
# side fails a larger share of operations, or when a new run is not
# correct. A worse row whose old runs alone span more than the bound is
# marked "unresolved"; the mark does not change the exit status.
set -euo pipefail
if [ $# -ne 2 ]; then
    echo "usage: $0 OLD NEW" >&2
    exit 2
fi
old=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
new=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
cd "$(dirname "$0")/.."
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/benchdiff" ./scripts/benchdiff
"$bin/benchdiff" BENCHMARK.json "$old" "$new"
