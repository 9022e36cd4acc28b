package index

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// TestHLStandsAlone: an HL index is its labels and component ids. It
// exports no hierarchy, so a sealed HL artifact carries only the label
// arena.
func TestHLStandsAlone(t *testing.T) {
	g, w := exportGrid(6)
	idx, err := Build(g, w, Options{Mode: HL})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Export(idx)
	if err != nil {
		t.Fatal(err)
	}
	if f.UpOff != nil || f.UpTo != nil || f.UpWt != nil {
		t.Fatalf("HL export carries a hierarchy: %d/%d/%d upward entries", len(f.UpOff), len(f.UpTo), len(f.UpWt))
	}
	if len(f.LabOff) != g.N()+1 || len(f.LabHub) == 0 || len(f.LabHub) != len(f.LabDist) {
		t.Fatalf("HL export label arena: %d offsets, %d hubs, %d distances", len(f.LabOff), len(f.LabHub), len(f.LabDist))
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
