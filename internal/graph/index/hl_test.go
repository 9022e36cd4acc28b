package index

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestHLGridEquivalence checks HL point queries against plain Dijkstra
// on the shared grid topology.
func TestHLGridEquivalence(t *testing.T) {
	g, w := exportGrid(12)
	idx, err := Build(g, w, Options{Mode: HL})
	if err != nil {
		t.Fatalf("Build(HL): %v", err)
	}
	if idx.Kind() != "hl" {
		t.Fatalf("Kind() = %q, want hl", idx.Kind())
	}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 400; q++ {
		s, u := rng.Intn(g.N()), rng.Intn(g.N())
		want, err := graph.QueryDistance(g, w, s, u)
		if err != nil {
			t.Fatal(err)
		}
		if got := idx.Distance(s, u); !distEqual(got, want) {
			t.Fatalf("Distance(%d,%d) = %v, want %v", s, u, got, want)
		}
	}
}

// TestHLExportCarriesHierarchy: an HL index exports its labels with
// the upward CSR of the hierarchy they were built from, the very arrays
// a CH build over the same input exports, so its sealed form can name
// each label entry by an upward edge.
func TestHLExportCarriesHierarchy(t *testing.T) {
	g, w := exportGrid(6)
	idx, err := Build(g, w, Options{Mode: HL})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Export(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.LabOff) != g.N()+1 || len(f.LabHub) == 0 || len(f.LabHub) != len(f.LabDist) {
		t.Fatalf("HL export label arena: %d offsets, %d hubs, %d distances", len(f.LabOff), len(f.LabHub), len(f.LabDist))
	}
	ch, err := Build(g, w, Options{Mode: CH})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := Export(ch)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.UpOff, cf.UpOff) || !slices.Equal(f.UpTo, cf.UpTo) || !slices.Equal(f.UpWt, cf.UpWt) {
		t.Fatalf("HL export hierarchy (%d upward edges) differs from the CH build's (%d)", len(f.UpTo), len(cf.UpTo))
	}
}

// TestHLLabelInvariants checks the arena structure the query merge and
// the snapshot reader both depend on: offsets monotone and complete,
// hubs strictly ascending per vertex, every vertex carrying its own
// (v, 0) self entry, all distances finite and nonnegative.
func TestHLLabelInvariants(t *testing.T) {
	g, w := exportGrid(9)
	idx, err := Build(g, w, Options{Mode: HL})
	if err != nil {
		t.Fatal(err)
	}
	x := idx.(*hlIndex)
	n := x.n
	if len(x.labOff) != n+1 || x.labOff[0] != 0 {
		t.Fatalf("labOff: len %d, first %d", len(x.labOff), x.labOff[0])
	}
	if int64(len(x.labHub)) != x.labOff[n] || int64(len(x.labDist)) != x.labOff[n] {
		t.Fatalf("arena lengths %d/%d vs offset total %d", len(x.labHub), len(x.labDist), x.labOff[n])
	}
	for v := 0; v < n; v++ {
		lo, hi := x.labOff[v], x.labOff[v+1]
		if hi < lo {
			t.Fatalf("vertex %d: offsets decrease", v)
		}
		self := false
		for i := lo; i < hi; i++ {
			if i > lo && x.labHub[i] <= x.labHub[i-1] {
				t.Fatalf("vertex %d: hubs not strictly ascending", v)
			}
			if d := x.labDist[i]; !(d >= 0) || math.IsInf(d, 1) {
				t.Fatalf("vertex %d: label distance %g", v, d)
			}
			if int(x.labHub[i]) == v {
				self = true
				if x.labDist[i] != 0 {
					t.Fatalf("vertex %d: self entry has distance %g", v, x.labDist[i])
				}
			}
		}
		if !self {
			t.Fatalf("vertex %d: label lacks its self entry", v)
		}
	}
}

// TestHLLabelsExactOnTies: with integer weights in {0, 1, 2} every sum
// is exact, so ties between shortest paths really happen and a wrong
// tie-break in the label merge or its pruning would show. Every answer
// must equal Dijkstra bit for bit, and every kept entry (h, d) must
// carry the exact distance from v to h.
func TestHLLabelsExactOnTies(t *testing.T) {
	g := graph.Grid(30)
	n := g.N()
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, g.M())
		for i := range w {
			w[i] = float64(rng.Intn(3))
		}
		idx, err := Build(g, w, Options{Mode: HL})
		if err != nil {
			t.Fatal(err)
		}
		x := idx.(*hlIndex)
		for s := 0; s < n; s++ {
			tree, err := graph.Dijkstra(g, w, s)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u++ {
				if got := x.Distance(s, u); got != tree.Dist[u] {
					t.Fatalf("seed %d: Distance(%d,%d) = %v, want %v", seed, s, u, got, tree.Dist[u])
				}
			}
			for i := x.labOff[s]; i < x.labOff[s+1]; i++ {
				if h, d := x.labHub[i], x.labDist[i]; d != tree.Dist[h] {
					t.Fatalf("seed %d: L(%d) holds (%d, %v), exact distance %v", seed, s, h, d, tree.Dist[h])
				}
			}
		}
	}
}

// TestHLBuildScheduleIndependent: a label reads only labels finished at
// an earlier level barrier, so one worker and the default worker count
// must produce the same arena.
func TestHLBuildScheduleIndependent(t *testing.T) {
	g, w := exportGrid(40)
	ch, err := buildCH(prepare(g, w), false)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	serial, err := buildHL(ch, 0)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := buildHL(ch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(serial.labOff, parallel.labOff) ||
		!slices.Equal(serial.labHub, parallel.labHub) ||
		!slices.Equal(serial.labDist, parallel.labDist) {
		t.Fatalf("labels differ between GOMAXPROCS 1 and %d", prev)
	}
}

// TestHLAutoTiering: Auto upgrades to hub labels when the label build
// fits the guard, keeps the hierarchy when it does not, and an explicit
// HL request ignores the guard entirely.
func TestHLAutoTiering(t *testing.T) {
	g, w := exportGrid(8)
	auto, err := Build(g, w, Options{Mode: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Kind() != "hl" {
		t.Fatalf("Auto on a grid built %q, want hl", auto.Kind())
	}
	// An average label on any connected graph holds at least the self
	// entry plus ancestors, so a guard of 1 entry per vertex must trip.
	tight, err := buildAuto(prepare(g, w), 1)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Kind() != "ch" {
		t.Fatalf("Auto with a 1-entry label guard built %q, want ch fallback", tight.Kind())
	}
	ch, err := buildCH(prepare(g, w), false)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit HL builds unguarded.
	forced, err := buildHL(ch, 0)
	if err != nil {
		t.Fatalf("explicit HL must ignore the guard: %v", err)
	}
	if forced.Kind() != "hl" {
		t.Fatalf("explicit HL built %q", forced.Kind())
	}
}

// TestHLDisconnected: cross-component queries are +Inf, intra-component
// ones exact.
func TestHLDisconnected(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	w := []float64{1, 2, 5}
	idx, err := Build(g, w, Options{Mode: HL})
	if err != nil {
		t.Fatal(err)
	}
	if d := idx.Distance(0, 2); d != 3 {
		t.Fatalf("Distance(0,2) = %v", d)
	}
	if d := idx.Distance(0, 3); !math.IsInf(d, 1) {
		t.Fatalf("Distance(0,3) = %v, want +Inf", d)
	}
	if d := idx.Distance(0, 5); !math.IsInf(d, 1) {
		t.Fatalf("Distance(0,5) = %v, want +Inf", d)
	}
}

// TestTopoOrderRejectsCycle: a hand-built cyclic "upward" CSR must be
// detected (rehydration depends on it).
func TestTopoOrderRejectsCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 plus an honest vertex 3 -> 0.
	upOff := []int32{0, 1, 2, 3, 4}
	upTo := []int32{1, 2, 0, 0}
	if _, ok := topoOrder(4, upOff, upTo); ok {
		t.Fatal("topoOrder accepted a cyclic graph")
	}
	// The acyclic variant must order every edge target first.
	upOff = []int32{0, 1, 2, 3, 3} // 0->1, 1->2, 2->3, vertex 3 maximal
	upTo = []int32{1, 2, 3}
	order, ok := topoOrder(4, upOff, upTo)
	if !ok || len(order) != 4 {
		t.Fatalf("topoOrder rejected an acyclic graph: %v %v", order, ok)
	}
	placed := make([]int, 4)
	for i, v := range order {
		placed[v] = i
	}
	for v := 0; v < 4; v++ {
		for i := upOff[v]; i < upOff[v+1]; i++ {
			if placed[upTo[i]] >= placed[v] {
				t.Fatalf("edge %d->%d not respected by order %v", v, upTo[i], order)
			}
		}
	}
}

// mergeDistance is the sorted-label merge the table kernel replaced,
// kept here as its oracle: it walks L(s) and L(t) in ascending hub
// order and takes the minimum sum over common hubs.
func mergeDistance(x *hlIndex, s, t int) float64 {
	if s == t {
		return 0
	}
	if x.comp[s] != x.comp[t] {
		return math.Inf(1)
	}
	i, iEnd := x.labOff[s], x.labOff[s+1]
	j, jEnd := x.labOff[t], x.labOff[t+1]
	best := math.Inf(1)
	for i < iEnd && j < jEnd {
		hi, hj := x.labHub[i], x.labHub[j]
		switch {
		case hi == hj:
			if d := x.labDist[i] + x.labDist[j]; d < best {
				best = d
			}
			i++
			j++
		case hi < hj:
			i++
		default:
			j++
		}
	}
	return best
}

// hlOrder is one query sequence the table kernel must answer exactly
// as the merge does.
type hlOrder struct {
	name  string
	pairs [][2]int
}

// hlPairOrders returns sequences that exercise each path through the
// table: reuse as loaded, reuse swapped, and reload.
func hlPairOrders(n int, rng *rand.Rand) []hlOrder {
	const runs, runLen = 12, 24
	var random, source, target, alternating, self [][2]int
	for q := 0; q < runs*runLen; q++ {
		random = append(random, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	for r := 0; r < runs; r++ {
		d := rng.Intn(n)
		for q := 0; q < runLen; q++ {
			source = append(source, [2]int{d, rng.Intn(n)})
			target = append(target, [2]int{rng.Intn(n), d})
		}
		a, b := rng.Intn(n), rng.Intn(n)
		for q := 0; q < runLen; q++ {
			alternating = append(alternating, [2]int{a, rng.Intn(n)}, [2]int{b, rng.Intn(n)})
		}
		v := rng.Intn(n)
		self = append(self, [2]int{v, v}, [2]int{v, rng.Intn(n)}, [2]int{v, v}, [2]int{rng.Intn(n), v}, [2]int{v, v})
	}
	return []hlOrder{
		{"random", random}, {"same-source", source}, {"same-target", target},
		{"alternating", alternating}, {"self", self},
	}
}

// twoGrids is two disjoint side x side grids, so half of all pairs
// cross components.
func twoGrids(side int) *graph.Graph {
	k := side * side
	g := graph.New(2 * k)
	for base := 0; base < 2*k; base += k {
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				if c+1 < side {
					g.AddEdge(base+r*side+c, base+r*side+c+1)
				}
				if r+1 < side {
					g.AddEdge(base+r*side+c, base+(r+1)*side+c)
				}
			}
		}
	}
	return g
}

// hlTestGraphs builds HL indexes, keyed by name, over the randomly
// weighted topologies the table kernel is checked on.
func hlTestGraphs(t *testing.T) map[string]*hlIndex {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"erdos-renyi-1", graph.ErdosRenyi(150, 0.04, rng)},
		{"erdos-renyi-2", graph.ErdosRenyi(300, 0.015, rng)},
		{"grid-16", graph.Grid(16)},
		{"two-components", twoGrids(8)},
	}
	out := map[string]*hlIndex{}
	for _, c := range graphs {
		idx, err := Build(c.g, graph.UniformRandomWeights(c.g, 0.5, 2.5, rng), Options{Mode: HL})
		if err != nil {
			t.Fatalf("%s: Build(HL): %v", c.name, err)
		}
		out[c.name] = idx.(*hlIndex)
	}
	return out
}

// TestHLTableMatchesMerge: the table kernel answers every pair with the
// merge's exact bits, whatever vertex the pooled table held before.
func TestHLTableMatchesMerge(t *testing.T) {
	for name, x := range hlTestGraphs(t) {
		rng := rand.New(rand.NewSource(3))
		for _, order := range hlPairOrders(x.n, rng) {
			for _, p := range order.pairs {
				got, want := x.Distance(p[0], p[1]), mergeDistance(x, p[0], p[1])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s: Distance(%d,%d) = %v (%#x), merge %v (%#x)",
						name, order.name, p[0], p[1], got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestHLTableConcurrent: goroutines sharing one index each answer
// same-source runs; a table is owned by one query at a time, so every
// answer still matches the merge.
func TestHLTableConcurrent(t *testing.T) {
	x := hlTestGraphs(t)["grid-16"]
	const workers = 8
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < 20; r++ {
				s := rng.Intn(x.n)
				for q := 0; q < 32; q++ {
					u := rng.Intn(x.n)
					if got, want := x.Distance(s, u), mergeDistance(x, s, u); math.Float64bits(got) != math.Float64bits(want) {
						errs <- fmt.Sprintf("worker %d: Distance(%d,%d) = %v, merge %v", seed, s, u, got, want)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
