#!/usr/bin/env bash
# Snapshot the serving and throughput bench group into BENCH_report.json:
# ns/op and allocs/op for every BenchmarkOracleDistance, BenchmarkOracleBatch,
# BenchmarkFillLaplace, BenchmarkParallelRelease, and (HTTP layer)
# BenchmarkServeDistance/BenchmarkServeBatch sub-benchmark, plus enough
# metadata (go version, GOMAXPROCS, timestamp) to compare two snapshots.
# CI runs this on every push so a perf regression shows up as a diff in
# the uploaded report, not as an anecdote.
#
# Usage: scripts/bench_snapshot.sh [output.json]   (default BENCH_report.json)
set -euo pipefail
cd "$(dirname "$0")/.."

report="${1:-BENCH_report.json}"

out=$(go test -bench 'BenchmarkOracleDistance|BenchmarkOracleBatch|BenchmarkFillLaplace|BenchmarkParallelRelease' \
    -benchmem -benchtime=20x -run '^$' .)
serveout=$(go test -bench 'BenchmarkServeDistance|BenchmarkServeBatch' \
    -benchmem -benchtime=20x -run '^$' ./internal/serve)
out=$(printf '%s\n%s' "$out" "$serveout")
echo "$out"

goversion=$(go env GOVERSION)
maxprocs=$(go env GOMAXPROCS 2>/dev/null || true)
[ -n "$maxprocs" ] && [ "$maxprocs" != "0" ] || maxprocs=$(getconf _NPROCESSORS_ONLN)
stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)

echo "$out" | awk -v goversion="$goversion" -v maxprocs="$maxprocs" -v stamp="$stamp" '
BEGIN {
    printf "{\n  \"generated\": \"%s\",\n  \"go\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"benchmarks\": [", stamp, goversion, maxprocs
    first = 1
}
/^Benchmark/ {
    name = $1; ns = ""; allocs = ""
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    if (!first) printf ","
    first = 0
    printf "\n    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s", name, ns, (allocs == "" ? "null" : allocs)
    printf "}"
}
END { print "\n  ]\n}" }
' > "$report"

echo "wrote $report ($(grep -c '"name"' "$report") benchmarks)"
