#!/usr/bin/env bash
# Perf guards for the serving and release hot paths (run without -race:
# the race runtime defeats sync.Pool and skews allocation counts).
#
# 1. Release-once/query-many: steady-state DistanceOracle point queries
#    on the tree, hierarchy, and table oracles must not allocate.
# 2. Vectorized noise: the FillLaplace block sampler (crypto-serial and
#    seeded sub-benchmarks) must not allocate per block.
# 3. Parallel release: on machines with GOMAXPROCS >= 8, the sharded
#    crypto fill must deliver >= 4x wall-clock over the serial path on a
#    >= 1M-edge ReleaseGraph (skipped on smaller machines, where the two
#    paths coincide).
# 4. Indexed serving: on a >= 100k-edge synthetic release, the
#    contraction-hierarchy oracle (WithQueryIndex) must answer point
#    queries >= 10x faster than the unindexed per-query Dijkstra oracle.
# 5. HTTP serving: a point query answered through the dpgraph serve
#    handler (request parse + admission + JSON response) must stay
#    within 2x of the same oracle called directly — the serving layer
#    may not swallow the release-once/query-many win.
# 6. Snapshot restore: unsealing a sealed artifact of a >= 100k-edge
#    indexed release (decode + index rehydration, zero budget) must
#    reach its first answered query >= 50x faster than re-materializing
#    the release and rebuilding its contraction hierarchy.
# 7. Hub labeling + PHAST: on the same >= 100k-edge grid, a hub-label
#    point query must beat the CH bidirectional search >= 5x, a PHAST
#    one-to-all sweep must beat per-pair CH queries >= 3x on a
#    repeated-source batch, and both hot paths must be allocation-free.
# 8. Zero-allocation serving + same-source throughput: the point and
#    batch HTTP handlers must report 0 allocs/op steady-state; a real
#    daemon over the 100,800-edge grid must push >= 100k pairs/s through
#    the pipelined NDJSON stream endpoint on a hub-label release; and
#    with 256 concurrent same-source clients, plain hub-label point
#    queries must reach >= 1.5x the throughput of the CH release.
# 9. Fleet scaling + fault recovery: three single-core replicas behind
#    the route coordinator must deliver >= 2x the aggregate qps of one
#    replica (needs >= 6 cores: three pinned replicas plus coordinator
#    plus bench client; skipped on smaller machines, where every process
#    shares the same core and aggregate throughput physically cannot
#    scale), and after a replica is killed -9 mid-fleet the coordinator
#    must evict it within two probe intervals and keep serving within
#    the bench error budget (runs everywhere).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1 + 2: allocation guards -----------------------------------------
out=$(go test -bench 'BenchmarkOracleDistance/(tree|hierarchy|table)|BenchmarkFillLaplace/(crypto-serial|seeded)' \
    -benchmem -benchtime=200x -run '^$' .)
echo "$out"

bad=$(echo "$out" | awk '/^Benchmark(OracleDistance|FillLaplace)\// && $(NF) == "allocs/op" && $(NF-1)+0 > 0')
if [ -n "$bad" ]; then
    echo >&2
    echo "FAIL: guarded benchmarks must be allocation-free:" >&2
    echo "$bad" >&2
    fail=1
else
    echo "OK: oracle point queries and block sampling report 0 allocs/op"
fi

# --- 3: parallel release speedup --------------------------------------
# Effective parallelism: an explicit GOMAXPROCS (container/cgroup
# setups) wins over the online-processor count.
procs="${GOMAXPROCS:-}"
[ -n "$procs" ] || procs=$(go env GOMAXPROCS 2>/dev/null || true)
[ -n "$procs" ] && [ "$procs" != "0" ] || procs=$(getconf _NPROCESSORS_ONLN)
if [ "$procs" -ge 8 ]; then
    # -count=3 and best-of ratios de-flake the gate against noisy
    # neighbors on shared runners: serial takes its fastest run (the
    # hardest comparison), parallel its fastest too.
    out=$(go test -bench 'BenchmarkParallelRelease' -benchtime=5x -count=3 -run '^$' .)
    echo "$out"
    serial=$(echo "$out" | awk '/^BenchmarkParallelRelease\/serial/ {if (min == "" || $3 < min) min = $3} END {print min}')
    parallel=$(echo "$out" | awk '/^BenchmarkParallelRelease\/parallel/ {if (min == "" || $3 < min) min = $3} END {print min}')
    if [ -z "$serial" ] || [ -z "$parallel" ]; then
        echo "FAIL: could not parse BenchmarkParallelRelease output" >&2
        fail=1
    else
        speedup=$(awk -v s="$serial" -v p="$parallel" 'BEGIN {printf "%.2f", s / p}')
        echo "parallel release speedup at GOMAXPROCS=$procs: ${speedup}x"
        if awk -v x="$speedup" 'BEGIN {exit !(x < 4)}'; then
            echo "FAIL: parallel release speedup ${speedup}x < 4x at GOMAXPROCS=$procs" >&2
            fail=1
        else
            echo "OK: parallel release >= 4x over serial"
        fi
    fi
else
    echo "SKIP: parallel release speedup guard needs GOMAXPROCS >= 8 (have $procs)"
fi

# --- 4: indexed serving speedup ---------------------------------------
# One 100,800-edge release served unindexed versus through the CH
# index. -count=2 with best-of ratios de-flakes the gate; the unindexed
# oracle takes its fastest run, the indexed oracle its fastest too.
out=$(go test -bench '^BenchmarkOracleDistance$/^synthetic-100k(-ch)?$' -benchtime=30x -count=2 -run '^$' .)
echo "$out"
# The -N GOMAXPROCS suffix is absent when GOMAXPROCS=1.
plain=$(echo "$out" | awk '$1 ~ /^BenchmarkOracleDistance\/synthetic-100k(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
indexed=$(echo "$out" | awk '$1 ~ /^BenchmarkOracleDistance\/synthetic-100k-ch(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
if [ -z "$plain" ] || [ -z "$indexed" ]; then
    echo "FAIL: could not parse BenchmarkOracleDistance/synthetic-100k output" >&2
    fail=1
else
    speedup=$(awk -v p="$plain" -v i="$indexed" 'BEGIN {printf "%.1f", p / i}')
    echo "indexed query speedup on the 100k-edge release: ${speedup}x"
    if awk -v x="$speedup" 'BEGIN {exit !(x < 10)}'; then
        echo "FAIL: indexed oracle speedup ${speedup}x < 10x over unindexed Dijkstra" >&2
        fail=1
    else
        echo "OK: indexed oracle >= 10x over unindexed Dijkstra"
    fi
fi

# --- 5: HTTP serving overhead -----------------------------------------
# One Grid(60) release: the same point queries answered by the oracle
# directly versus through the serve handler. -count=2 with best-of
# ratios de-flakes the gate. The 2x bound is generous (measured ~1.05x:
# a few microseconds of HTTP atop a ~250us search) but catches any
# accidental per-request release work or lock contention on the path.
# BenchmarkServeDistance is parametrized by index mode; the overhead
# gate reads the unindexed (off) pair so the bound tracks the HTTP
# layer, not index speed.
out=$(go test -bench '^BenchmarkServeDistance$/^off$' -benchtime=50x -count=2 -run '^$' ./internal/serve)
echo "$out"
direct=$(echo "$out" | awk '$1 ~ /^BenchmarkServeDistance\/off\/direct(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
served=$(echo "$out" | awk '$1 ~ /^BenchmarkServeDistance\/off\/http(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
if [ -z "$direct" ] || [ -z "$served" ]; then
    echo "FAIL: could not parse BenchmarkServeDistance output" >&2
    fail=1
else
    ratio=$(awk -v d="$direct" -v s="$served" 'BEGIN {printf "%.2f", s / d}')
    echo "HTTP serving overhead over the direct oracle call: ${ratio}x"
    if awk -v x="$ratio" 'BEGIN {exit !(x > 2)}'; then
        echo "FAIL: serve hot path is ${ratio}x the direct oracle call, want <= 2x" >&2
        fail=1
    else
        echo "OK: serve hot path within 2x of the direct oracle call"
    fi
fi

# --- 6: snapshot restore speedup ---------------------------------------
# The same 100,800-edge CH-indexed release, restored two ways: full
# re-materialization versus unsealing a snapshot artifact. Both end
# with one answered query. -count=2 with best-of ratios de-flakes the
# gate; measured ~95x against the 50x bound.
out=$(go test -bench '^BenchmarkSnapshotRestore$' -benchtime=3x -count=2 -run '^$' .)
echo "$out"
remat=$(echo "$out" | awk '$1 ~ /^BenchmarkSnapshotRestore\/rematerialize(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
unseal=$(echo "$out" | awk '$1 ~ /^BenchmarkSnapshotRestore\/unseal(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
if [ -z "$remat" ] || [ -z "$unseal" ]; then
    echo "FAIL: could not parse BenchmarkSnapshotRestore output" >&2
    fail=1
else
    speedup=$(awk -v r="$remat" -v u="$unseal" 'BEGIN {printf "%.1f", r / u}')
    echo "snapshot restore speedup over re-materialization: ${speedup}x"
    if awk -v x="$speedup" 'BEGIN {exit !(x < 50)}'; then
        echo "FAIL: snapshot restore ${speedup}x < 50x over re-materialization" >&2
        fail=1
    else
        echo "OK: snapshot restore >= 50x faster than re-materialization"
    fi
fi

# --- 7: hub labeling + PHAST -------------------------------------------
# The same 100,800-edge grid at the index layer: hub-label point query
# versus the CH bidirectional search, and one PHAST sweep versus the
# same targets asked per pair. -count=2 with best-of ratios de-flakes
# both gates; measured ~70x (point) and ~25x (sweep) against the 5x and
# 3x bounds. Both hot paths must also be allocation-free.
out=$(go test -bench '^BenchmarkIndexDistance$/^(ch|hl)$|^BenchmarkIndexOneToMany$' \
    -benchmem -benchtime=50x -count=2 -run '^$' ./internal/graph/index)
echo "$out"
chpt=$(echo "$out" | awk '$1 ~ /^BenchmarkIndexDistance\/ch(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
hlpt=$(echo "$out" | awk '$1 ~ /^BenchmarkIndexDistance\/hl(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
perpair=$(echo "$out" | awk '$1 ~ /^BenchmarkIndexOneToMany\/ch-perpair(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
phast=$(echo "$out" | awk '$1 ~ /^BenchmarkIndexOneToMany\/phast(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
if [ -z "$chpt" ] || [ -z "$hlpt" ] || [ -z "$perpair" ] || [ -z "$phast" ]; then
    echo "FAIL: could not parse the hub-label/PHAST benchmark output" >&2
    fail=1
else
    speedup=$(awk -v c="$chpt" -v h="$hlpt" 'BEGIN {printf "%.1f", c / h}')
    echo "hub-label point-query speedup over CH: ${speedup}x"
    if awk -v x="$speedup" 'BEGIN {exit !(x < 5)}'; then
        echo "FAIL: hub-label point query ${speedup}x < 5x over the CH search" >&2
        fail=1
    else
        echo "OK: hub-label point query >= 5x over the CH search"
    fi
    speedup=$(awk -v p="$perpair" -v s="$phast" 'BEGIN {printf "%.1f", p / s}')
    echo "PHAST one-to-many speedup over per-pair CH: ${speedup}x"
    if awk -v x="$speedup" 'BEGIN {exit !(x < 3)}'; then
        echo "FAIL: PHAST sweep ${speedup}x < 3x over per-pair CH queries" >&2
        fail=1
    else
        echo "OK: PHAST sweep >= 3x over per-pair CH queries"
    fi
fi
bad=$(echo "$out" | awk '$1 ~ /^Benchmark(IndexDistance\/hl|IndexOneToMany\/phast)(-[0-9]+)?$/ && $(NF) == "allocs/op" && $(NF-1)+0 > 0')
if [ -n "$bad" ]; then
    echo >&2
    echo "FAIL: hub-label and PHAST hot paths must be allocation-free:" >&2
    echo "$bad" >&2
    fail=1
else
    echo "OK: hub-label point queries and PHAST sweeps report 0 allocs/op"
fi

# --- 8: zero-allocation serving + same-source throughput --------------
# (a) The handler-level claim at its strongest: testing.AllocsPerRun
# over the real handlers must count exactly zero allocations.
if go test -run 'TestServeDistanceZeroAlloc|TestServeDistancesZeroAlloc' -count=1 ./internal/serve; then
    echo "OK: point and batch serve handlers allocate nothing steady-state"
else
    echo "FAIL: serve handlers are no longer allocation-free" >&2
    fail=1
fi

# (b) End to end over real HTTP: build the CLI, seal hub-label and CH
# releases of the 100,800-edge grid, and boot one daemon from the
# snapshots.
workdir=$(mktemp -d)
pids=""
cleanup() {
    for pid in $pids; do kill "$pid" 2>/dev/null || true; done
    for pid in $pids; do wait "$pid" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/dpgraph" ./cmd/dpgraph
awk 'BEGIN {
    side = 225
    print "graph", side * side
    for (r = 0; r < side; r++)
        for (c = 0; c < side; c++) {
            v = r * side + c
            if (c + 1 < side) print "edge", v, v + 1, 1 + v % 7
            if (r + 1 < side) print "edge", v, v + side, 1 + (v + 3) % 7
        }
}' > "$workdir/grid.txt"
mkdir -p "$workdir/snapA"
"$workdir/dpgraph" -graph "$workdir/grid.txt" -eps 1 -seed 42 -index hl seal release -out "$workdir/snapA/hl.dpsnap"
"$workdir/dpgraph" -graph "$workdir/grid.txt" -eps 1 -seed 42 -index ch seal release -out "$workdir/snapA/ch.dpsnap"

# wait_url polls a daemon log for the listen announcement, which is
# printed only after the snapshot dir has been restored.
wait_url() { # logfile
    local url=""
    for _ in $(seq 1 150); do
        url=$(awk '/serving .* on http/ {print $NF; exit}' "$1" 2>/dev/null || true)
        [ -n "$url" ] && break
        sleep 0.1
    done
    if [ -z "$url" ]; then
        echo "FAIL: daemon never started listening ($1):" >&2
        cat "$1" >&2
        return 1
    fi
    echo "$url"
}
"$workdir/dpgraph" -graph "$workdir/grid.txt" serve -addr 127.0.0.1:0 -max-inflight 0 \
    -snapshot-dir "$workdir/snapA" > "$workdir/a.log" 2>&1 &
pids="$pids $!"
urlA=$(wait_url "$workdir/a.log") || exit 1

# Pipelined stream throughput on the hub-label release.
out=$("$workdir/dpgraph" bench-serve -url "$urlA" -release hl -n 200000 -c 4 -stream)
echo "$out"
streamqps=$(echo "$out" | awk '/pairs\/s pipelined/ {print $2}')
if [ -z "$streamqps" ]; then
    echo "FAIL: could not parse the stream bench output" >&2
    fail=1
elif awk -v x="$streamqps" 'BEGIN {exit !(x < 100000)}'; then
    echo "FAIL: pipelined stream throughput ${streamqps} pairs/s < 100k" >&2
    fail=1
else
    echo "OK: pipelined NDJSON stream serves ${streamqps} pairs/s (>= 100k)"
fi

# Same-source throughput, hub labels vs CH on one daemon: 256
# concurrent clients, every request a distinct target from vertex 0, so
# the only difference is the index answering each point query.
outCH=$("$workdir/dpgraph" bench-serve -url "$urlA" -release ch -n 4096 -c 256 -source 0)
echo "$outCH"
outHL=$("$workdir/dpgraph" bench-serve -url "$urlA" -release hl -n 4096 -c 256 -source 0)
echo "$outHL"
qpsCH=$(echo "$outCH" | awk '/requests\/s/ {print $2}')
qpsHL=$(echo "$outHL" | awk '/requests\/s/ {print $2}')
if [ -z "$qpsCH" ] || [ -z "$qpsHL" ]; then
    echo "FAIL: could not parse the same-source bench output" >&2
    fail=1
else
    ratio=$(awk -v a="$qpsCH" -v b="$qpsHL" 'BEGIN {printf "%.2f", b / a}')
    echo "same-source hub-label speedup over CH: ${ratio}x (${qpsHL} vs ${qpsCH} requests/s)"
    if awk -v x="$ratio" 'BEGIN {exit !(x < 1.5)}'; then
        echo "FAIL: same-source hub-label throughput ${ratio}x < 1.5x CH" >&2
        fail=1
    else
        echo "OK: hub labels >= 1.5x CH on 256 concurrent same-source clients"
    fi
fi

# --- 9: fleet scaling + fault recovery ---------------------------------
# (a) `dpgraph fleet` boots real replica and coordinator processes and
# benches through the coordinator at every scale. The release is
# unindexed so each query costs a real Dijkstra and a GOMAXPROCS=1
# replica is CPU-bound — added replicas add real capacity.
awk 'BEGIN {
    side = 60
    print "graph", side * side
    for (r = 0; r < side; r++)
        for (c = 0; c < side; c++) {
            v = r * side + c
            if (c + 1 < side) print "edge", v, v + 1, 1 + v % 7
            if (r + 1 < side) print "edge", v, v + side, 1 + (v + 3) % 7
        }
}' > "$workdir/fleetgrid.txt"
if [ "$procs" -ge 6 ]; then
    out=$("$workdir/dpgraph" fleet -graph "$workdir/fleetgrid.txt" -n 3 -procs 1 -requests 4000 -c 16)
    echo "$out"
    one=$(echo "$out" | awk '/^fleet: scale 1 -> / {print $5}')
    three=$(echo "$out" | awk '/^fleet: scale 3 -> / {print $5}')
    if [ -z "$one" ] || [ -z "$three" ]; then
        echo "FAIL: could not parse the fleet scaling output" >&2
        fail=1
    else
        ratio=$(awk -v a="$one" -v b="$three" 'BEGIN {printf "%.2f", b / a}')
        echo "fleet scaling 1 -> 3 replicas: ${ratio}x (${three} vs ${one} requests/s)"
        if awk -v x="$ratio" 'BEGIN {exit !(x < 2)}'; then
            echo "FAIL: 3-replica aggregate qps ${ratio}x < 2x a single replica" >&2
            fail=1
        else
            echo "OK: 3 replicas deliver >= 2x single-replica throughput"
        fi
    fi
else
    echo "SKIP: fleet scaling guard needs >= 6 cores (have $procs)"
fi

# (b) Kill -9 one of three live replicas: the coordinator must mark it
# evicted within two probe intervals (plus scheduling slack for the
# shell poll loop) and the degraded pool must pass a bench within a 1%
# error budget.
mkdir -p "$workdir/fleetsnap"
"$workdir/dpgraph" -graph "$workdir/fleetgrid.txt" -eps 1 -seed 7 seal release \
    -out "$workdir/fleetsnap/bench.dpsnap"
repurls=""
reppids=""
for i in 1 2 3; do
    GOMAXPROCS=1 "$workdir/dpgraph" -graph "$workdir/fleetgrid.txt" serve -addr 127.0.0.1:0 \
        -snapshot-dir "$workdir/fleetsnap" -drain-grace 0s > "$workdir/rep$i.log" 2>&1 &
    pids="$pids $!"
    reppids="$reppids $!"
    url=$(wait_url "$workdir/rep$i.log") || exit 1
    repurls="$repurls,$url"
done
repurls=${repurls#,}
"$workdir/dpgraph" route -addr 127.0.0.1:0 -probe-interval 250ms -drain-grace 0s \
    -replicas "$repurls" > "$workdir/route.log" 2>&1 &
pids="$pids $!"
routeurl=""
for _ in $(seq 1 150); do
    routeurl=$(awk '/routing .* on http/ {print $NF; exit}' "$workdir/route.log" 2>/dev/null || true)
    [ -n "$routeurl" ] && break
    sleep 0.1
done
if [ -z "$routeurl" ]; then
    echo "FAIL: route coordinator never started listening:" >&2
    cat "$workdir/route.log" >&2
    exit 1
fi
healthy=0
for _ in $(seq 1 100); do
    healthy=$(curl -s "$routeurl/v1/replicas" | grep -c '"healthy"' || true)
    [ "$healthy" = 3 ] && break
    sleep 0.05
done
if [ "$healthy" != 3 ]; then
    echo "FAIL: only $healthy of 3 replicas became healthy at the coordinator" >&2
    fail=1
else
    victim=$(echo "$reppids" | awk '{print $NF}')
    kill -9 "$victim"
    start=$(date +%s%N)
    evicted=""
    for _ in $(seq 1 60); do
        if curl -s "$routeurl/v1/replicas" | grep -q '"evicted"'; then
            evicted=1
            break
        fi
        sleep 0.05
    done
    elapsed_ms=$(( ($(date +%s%N) - start) / 1000000 ))
    # Two 250ms probe cycles cover the worst case (kill lands right
    # after a probe); 500ms of slack absorbs curl + shell scheduling.
    if [ -z "$evicted" ]; then
        echo "FAIL: killed replica was never evicted" >&2
        fail=1
    elif [ "$elapsed_ms" -gt 1000 ]; then
        echo "FAIL: eviction took ${elapsed_ms}ms, want <= 2 probe intervals (500ms + slack)" >&2
        fail=1
    else
        echo "OK: killed replica evicted after ${elapsed_ms}ms (probe interval 250ms)"
    fi
    if out=$("$workdir/dpgraph" bench-serve -url "$routeurl" -release bench \
            -n 2000 -c 8 -timeout 5s -max-error-rate 0.01); then
        echo "$out"
        echo "OK: degraded 2-replica pool served the bench within a 1% error budget"
    else
        echo "$out"
        echo "FAIL: bench through the degraded pool exceeded the 1% error budget" >&2
        fail=1
    fi
fi

exit "$fail"
