#!/usr/bin/env bash
# Runs the repository benchmark (perfbench/run.sh, untraced) for every
# workload of BENCHMARK.json at each given seed and writes one
# trajectory file:
#
#   scripts/bench_run.sh BENCH_17.json 1 2 3
#
# The file holds the host line of the first run and, for each workload
# and seed, perfbench's result line (correct, attempted, failed and the
# end-to-end metrics). Compare two such files with scripts/bench_diff.sh.
# It exits non-zero when any run is not correct; the file is written
# either way.
set -euo pipefail
if [ $# -lt 2 ]; then
    echo "usage: $0 OUT SEED..." >&2
    exit 2
fi
out=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
shift
for seed in "$@"; do
    case $seed in
    '' | *[!0-9]*) echo "bench_run: seed $seed is not a nonnegative integer" >&2; exit 2 ;;
    esac
done
cd "$(dirname "$0")/.."

seconds=$(awk -F: '/"run_seconds"/ {gsub(/[^0-9.]/, "", $2); print $2}' BENCHMARK.json)
workloads=$(awk '/"workloads"/ {on = 1} /"end_to_end"/ {on = 0}
    on && /"name"/ {split($0, f, "\""); print f[4]}' BENCHMARK.json)

log=$(mktemp)
trap 'rm -f "$log"' EXIT
host=""
runs=""
status=0
for w in $workloads; do
    for seed in "$@"; do
        echo "bench_run: $w seed $seed" >&2
        if ! bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 > "$log"; then
            status=1
        fi
        res=$(tail -n 1 "$log")
        case $res in
        '{'*) ;;
        *) echo "bench_run: $w seed $seed printed no result line" >&2; exit 1 ;;
        esac
        [ -n "$host" ] || host=$(sed -n 's/^host: //p' "$log")
        runs="$runs${runs:+,}
    {\"workload\": \"$w\", \"seed\": $seed, \"result\": $res}"
    done
done
printf '{\n  "host": %s,\n  "runs": [%s\n  ]\n}\n' "$host" "$runs" > "$out"
exit "$status"
