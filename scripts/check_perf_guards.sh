#!/usr/bin/env bash
# Perf guards for the serving and release hot paths (run without -race:
# the race runtime defeats sync.Pool and skews allocation counts).
#
# 1. Release-once/query-many: steady-state DistanceOracle point queries
#    on the tree, hierarchy, and table oracles must not allocate.
# 2. Vectorized noise: the FillLaplace block sampler (the default crypto
#    source and the seeded source) must not allocate per block.
# 3. (Retired with the sharded noise fill it timed; the other guards
#    keep their numbers.)
# 4. Indexed serving: on a >= 100k-edge synthetic release, the
#    contraction-hierarchy oracle (WithQueryIndex) must answer point
#    queries >= 10x faster than the unindexed per-query Dijkstra oracle.
# 5. HTTP serving: a point query answered through the dpgraph serve
#    handler (request parse + admission + JSON response) must stay
#    within 2x of the same oracle called directly — the serving layer
#    may not swallow the release-once/query-many win.
# 6. Snapshot restore: unsealing a sealed artifact of a >= 100k-edge
#    indexed release (decode + index rehydration, zero budget) must
#    reach its first answered query in <= 3x the time of one full
#    Dijkstra over the same grid, which is 50x under re-materializing
#    the release as contraction stood before it got ~2x faster. The
#    same release indexed with hub labels, rebuilt from their sealed
#    sources, must unseal in <= 8.85x one full Dijkstra, and its
#    artifact must take <= 3.68 bytes per label entry.
# 7. Hub labeling: on the same >= 100k-edge grid, a hub-label point
#    query must beat the CH bidirectional search >= 5x, and both point
#    queries (hub-label ones random and in a batch's depot shape) and
#    result-cache lookups must be allocation-free. Building the labels from a finished hierarchy must take <= 140x
#    the time of one full Dijkstra over the same grid, and the labels
#    must average <= 92.0 entries per vertex.
# 8. Zero-allocation serving + same-source throughput: the point and
#    batch HTTP handlers must report 0 allocs/op steady-state; a real
#    daemon over the 100,800-edge grid must push >= 100k pairs/s through
#    the pipelined NDJSON stream endpoint on a hub-label release; and
#    with 256 concurrent same-source clients, plain hub-label point
#    queries must reach >= 1.5x the throughput of the CH release.
# 9. Fault recovery: after one of three live replicas is killed -9, the
#    route coordinator must evict it within two probe intervals and keep
#    serving within the bench error budget.
# 10. Coordinator hop allocations: one GET point query's whole loopback
#    round trip (client -> coordinator -> replica and back) must stay
#    within 151 allocs/op (BenchmarkCoordinatorPoint).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1 + 2: allocation guards -----------------------------------------
out=$(go test -bench 'BenchmarkOracleDistance/(tree|hierarchy|table)|BenchmarkFillLaplace/(crypto|seeded)' \
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

# --- 6: snapshot restore ----------------------------------------------
# The 100,800-edge CH-indexed release unsealed (BenchmarkSnapshotRestore/
# unseal) against one full single-source Dijkstra over the same grid
# (BenchmarkFullDijkstra): the yardstick shares the host's speed but none
# of the index's code, so a faster contraction cannot tighten the gate,
# as it did while the gate compared against re-materialization. The 3x
# bound is the old 50x-under-re-materialization bound in yardstick units,
# calibrated before contraction got faster: two runs there read best
# rematerialize 3.59 s and 3.56 s against best full Dijkstra 20.7 ms and
# 22.9 ms, i.e. 3.47x and 3.11x, rounded down to 3. Best of -count=3 for
# the unseal, -count=2 for the yardstick.
out=$(go test -bench '^BenchmarkSnapshotRestore$/^unseal(-hl)?$' -benchtime=10x -count=3 -run '^$' .)
echo "$out"
unseal=$(echo "$out" | awk '$1 ~ /^BenchmarkSnapshotRestore\/unseal(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
unseal_hl=$(echo "$out" | awk '$1 ~ /^BenchmarkSnapshotRestore\/unseal-hl(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
per_entry=$(echo "$out" | awk '$1 ~ /^BenchmarkSnapshotRestore\/unseal-hl(-[0-9]+)?$/ {for (i = 4; i < NF; i++) if ($(i+1) == "artifact-B/entry") v = $i} END {print v}')
out=$(go test -bench '^BenchmarkFullDijkstra$' -benchtime=20x -count=2 -run '^$' ./internal/graph/index)
echo "$out"
dijkstra=$(echo "$out" | awk '$1 ~ /^BenchmarkFullDijkstra(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
if [ -z "$unseal" ] || [ -z "$dijkstra" ]; then
    echo "FAIL: could not parse the BenchmarkSnapshotRestore/unseal and BenchmarkFullDijkstra output" >&2
    fail=1
else
    ratio=$(awk -v u="$unseal" -v d="$dijkstra" 'BEGIN {printf "%.2f", u / d}')
    echo "snapshot restore time over one full Dijkstra: ${ratio}x"
    if awk -v x="$ratio" 'BEGIN {exit !(x > 3)}'; then
        echo "FAIL: snapshot restore takes ${ratio}x one full Dijkstra, want <= 3x" >&2
        fail=1
    else
        echo "OK: snapshot restore <= 3x one full Dijkstra"
    fi
fi
# The hub-label leg. Its release seals its labels as pointers into the
# hierarchy (format version 4), and unseal rebuilds them. The time
# bound is the best ratio at 2fc380c, the commit before, which sealed
# the label arena itself, plus 25%: two calibration runs there read
# best unseal-hl 49.34 ms and 48.81 ms against best full Dijkstra
# 6.905 ms and 6.895 ms, i.e. 7.15x and 7.08x; 7.08 x 1.25 = 8.85. The
# artifact took 12.70 bytes per label entry there and 3.503 with
# sources; the size bound is 3.503 plus 5%, 3.68.
if [ -z "$unseal_hl" ] || [ -z "$dijkstra" ] || [ -z "$per_entry" ]; then
    echo "FAIL: could not parse the BenchmarkSnapshotRestore/unseal-hl output" >&2
    fail=1
else
    ratio=$(awk -v u="$unseal_hl" -v d="$dijkstra" 'BEGIN {printf "%.2f", u / d}')
    echo "hub-label snapshot restore time over one full Dijkstra: ${ratio}x; ${per_entry} artifact bytes per label entry"
    if awk -v x="$ratio" 'BEGIN {exit !(x > 8.85)}'; then
        echo "FAIL: hub-label snapshot restore takes ${ratio}x one full Dijkstra, want <= 8.85x" >&2
        fail=1
    else
        echo "OK: hub-label snapshot restore <= 8.85x one full Dijkstra"
    fi
    if awk -v x="$per_entry" 'BEGIN {exit !(x > 3.68)}'; then
        echo "FAIL: the hub-label artifact takes ${per_entry} bytes per label entry, want <= 3.68" >&2
        fail=1
    else
        echo "OK: the hub-label artifact takes <= 3.68 bytes per label entry"
    fi
fi

# --- 7: hub labeling ---------------------------------------------------
# The same 100,800-edge grid at the index layer: hub-label point query
# versus the CH bidirectional search. -count=2 with a best-of ratio
# de-flakes the gate; measured ~70x against the 5x bound. Both point
# queries (ch.go's Distance over the search.go kernel, and hl.go's
# hub-table scan, on random pairs and on hl-depot's one source to 256
# targets) must also be allocation-free, and so must the result cache
# the oracle puts in front of them.
out=$(go test -bench '^BenchmarkIndexDistance$/^(ch|hl|hl-depot)$' \
    -benchmem -benchtime=50x -count=2 -run '^$' ./internal/graph/index)
echo "$out"
chpt=$(echo "$out" | awk '$1 ~ /^BenchmarkIndexDistance\/ch(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
hlpt=$(echo "$out" | awk '$1 ~ /^BenchmarkIndexDistance\/hl(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
if [ -z "$chpt" ] || [ -z "$hlpt" ]; then
    echo "FAIL: could not parse the hub-label/CH benchmark output" >&2
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
fi
bad=$(echo "$out" | awk '$1 ~ /^BenchmarkIndexDistance\/(ch|hl|hl-depot)(-[0-9]+)?$/ && $(NF) == "allocs/op" && $(NF-1)+0 > 0')
if [ "$(echo "$out" | grep -c '^BenchmarkIndexDistance/hl-depot')" -ne 2 ]; then
    echo "FAIL: could not parse the BenchmarkIndexDistance/hl-depot output" >&2
    fail=1
fi
if [ -n "$bad" ]; then
    echo >&2
    echo "FAIL: CH and hub-label point queries must be allocation-free:" >&2
    echo "$bad" >&2
    fail=1
else
    echo "OK: CH and hub-label point queries report 0 allocs/op"
fi
out=$(go test -bench '^BenchmarkPairCache$' -benchmem -benchtime=100000x -run '^$' ./internal/graph/index)
echo "$out"
bad=$(echo "$out" | awk '$1 ~ /^BenchmarkPairCache\// && $(NF) == "allocs/op" && $(NF-1)+0 > 0')
if [ "$(echo "$out" | grep -c '^BenchmarkPairCache/')" -ne 2 ]; then
    echo "FAIL: could not parse the BenchmarkPairCache output" >&2
    fail=1
elif [ -n "$bad" ]; then
    echo >&2
    echo "FAIL: result-cache lookups must be allocation-free:" >&2
    echo "$bad" >&2
    fail=1
else
    echo "OK: result-cache hits and misses report 0 allocs/op"
fi

# Build leg: label generation alone (BenchmarkBuildHL, hierarchy built
# outside the timer) against one full single-source Dijkstra over the
# same grid (BenchmarkFullDijkstra): the yardstick shares the host's
# speed but none of the index's code, so a faster contraction cannot
# loosen the leg. The 140x bound admits the labelling time 0.35x of the
# contraction admitted before contraction got faster (calibrated at
# 141-168x). Labels merged top-down from the upward neighbours' labels
# measure 66-86x; one upward search per vertex measured 269x.
# Best of -count=2 for both.
out=$(go test -bench '^BenchmarkBuildHL$' -benchtime=1x -count=2 -run '^$' ./internal/graph/index)
echo "$out"
hlbuild=$(echo "$out" | awk '$1 ~ /^BenchmarkBuildHL(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
# Label size: the contraction order decides how many entries the labels
# hold, and so the size of every sealed hub-label artifact. The grid's
# labels average 89.35 entries per vertex (105.2 before the witness
# budget went from 48 to 200 and the priority gained its level term);
# the 92.0 ceiling is that plus 3%, so an ordering change cannot give
# the gain back unnoticed. The count is deterministic; take the largest.
entries=$(echo "$out" | awk '$1 ~ /^BenchmarkBuildHL(-[0-9]+)?$/ {for (i = 2; i < NF; i++) if ($(i+1) == "entries/vertex" && $i > max) max = $i} END {print max}')
if [ -z "$entries" ]; then
    echo "FAIL: could not parse the BenchmarkBuildHL entries/vertex metric" >&2
    fail=1
elif awk -v x="$entries" 'BEGIN {exit !(x > 92.0)}'; then
    echo "FAIL: hub labels average ${entries} entries per vertex, want <= 92.0" >&2
    fail=1
else
    echo "OK: hub labels average ${entries} entries per vertex (<= 92.0)"
fi
out=$(go test -bench '^BenchmarkFullDijkstra$' -benchtime=20x -count=2 -run '^$' ./internal/graph/index)
echo "$out"
dijkstra=$(echo "$out" | awk '$1 ~ /^BenchmarkFullDijkstra(-[0-9]+)?$/ {if (min == "" || $3 < min) min = $3} END {print min}')
if [ -z "$hlbuild" ] || [ -z "$dijkstra" ]; then
    echo "FAIL: could not parse the BenchmarkBuildHL and BenchmarkFullDijkstra output" >&2
    fail=1
else
    ratio=$(awk -v d="$dijkstra" -v h="$hlbuild" 'BEGIN {printf "%.1f", h / d}')
    echo "hub-label build time over one full Dijkstra: ${ratio}x"
    if awk -v x="$ratio" 'BEGIN {exit !(x > 140)}'; then
        echo "FAIL: hub-label build takes ${ratio}x one full Dijkstra, want <= 140x" >&2
        fail=1
    else
        echo "OK: hub-label build <= 140x one full Dijkstra"
    fi
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

# --- 9: fault recovery -------------------------------------------------
# Kill -9 one of three live replicas: the coordinator must mark it
# evicted within two probe intervals (plus scheduling slack for the
# shell poll loop) and the degraded pool must pass a bench within a 1%
# error budget.
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

# --- 10: coordinator hop allocations -----------------------------------
# BenchmarkCoordinatorPoint times client -> coordinator -> replica on
# loopback with the coordinator's default transport and hedging. It
# measured 175 allocs/op before the hop ran inline, 149 once it did (the
# handler goroutine sends the primary attempt itself, a hedge starts
# only when its timer fires, and answers are read into one exact-size
# buffer), and 144 once attempts went straight to the round-tripper
# instead of through an http.Client. The 151 bound is 144 plus 5%.
# Allocation counts barely move between runs; take the smallest of
# three.
out=$(go test -bench '^BenchmarkCoordinatorPoint$' -benchmem -benchtime=2000x -count=3 -run '^$' ./internal/cluster)
echo "$out"
allocs=$(echo "$out" | awk '$1 ~ /^BenchmarkCoordinatorPoint(-[0-9]+)?$/ && $(NF) == "allocs/op" {if (min == "" || $(NF-1) < min) min = $(NF-1)} END {print min}')
if [ -z "$allocs" ]; then
    echo "FAIL: could not parse the BenchmarkCoordinatorPoint output" >&2
    fail=1
elif [ "$allocs" -gt 151 ]; then
    echo "FAIL: a routed point query makes ${allocs} allocs/op end to end, want <= 151" >&2
    fail=1
else
    echo "OK: a routed point query makes ${allocs} allocs/op end to end (<= 151)"
fi

exit "$fail"
