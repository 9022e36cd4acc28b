package index

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/graph"
)

// checkEquivalence asserts the index answers every (s, t) pair exactly
// as the pooled Dijkstra engine does (up to float summation order).
func checkEquivalence(t *testing.T, g *graph.Graph, w []float64, idx Index, pairs int, rng *rand.Rand) {
	t.Helper()
	n := g.N()
	if idx.N() != n {
		t.Fatalf("index serves %d vertices, want %d", idx.N(), n)
	}
	for q := 0; q < pairs; q++ {
		s, u := rng.Intn(n), rng.Intn(n)
		want, err := graph.QueryDistance(g, w, s, u)
		if err != nil {
			t.Fatal(err)
		}
		got := idx.Distance(s, u)
		if !distEqual(got, want) {
			t.Fatalf("%s: Distance(%d, %d) = %g, Dijkstra says %g", idx.Kind(), s, u, got, want)
		}
	}
}

func distEqual(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9 || diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// hubGraph builds a hub-and-spoke topology: a few high-degree hubs
// joined to each other, with many leaves attached to random hubs and a
// sprinkling of leaf-leaf edges.
func hubGraph(n, hubs int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < hubs; i++ {
		for j := i + 1; j < hubs; j++ {
			g.AddEdge(i, j)
		}
	}
	for v := hubs; v < n; v++ {
		g.AddEdge(v, rng.Intn(hubs))
		if rng.Float64() < 0.2 && v > hubs {
			g.AddEdge(v, hubs+rng.Intn(v-hubs))
		}
	}
	return g
}

func modes() []Mode { return []Mode{Auto, CH, ALT} }

func TestIndexMatchesDijkstraOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(60)
		g := graph.ErdosRenyi(n, 2.5/float64(n), rng) // often disconnected
		w := graph.UniformRandomWeights(g, 0, 5, rng)
		for _, m := range modes() {
			idx, err := Build(g, w, Options{Mode: m})
			if err != nil {
				t.Fatalf("mode %v: %v", m, err)
			}
			checkEquivalence(t, g, w, idx, 80, rng)
		}
	}
}

func TestIndexMatchesDijkstraOnGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.Grid(14)
	w := graph.UniformRandomWeights(g, 0.1, 3, rng)
	for _, m := range modes() {
		idx, err := Build(g, w, Options{Mode: m})
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		checkEquivalence(t, g, w, idx, 200, rng)
	}
}

func TestIndexMatchesDijkstraOnHubGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := hubGraph(300, 6, rng)
	w := graph.UniformRandomWeights(g, 0, 4, rng)
	for _, m := range modes() {
		idx, err := Build(g, w, Options{Mode: m})
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		checkEquivalence(t, g, w, idx, 200, rng)
	}
}

func TestIndexZeroWeightEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.Grid(8)
	w := make([]float64, g.M()) // all zero
	for _, m := range modes() {
		idx, err := Build(g, w, Options{Mode: m})
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		checkEquivalence(t, g, w, idx, 60, rng)
		if d := idx.Distance(0, g.N()-1); d != 0 {
			t.Fatalf("mode %v: zero-weight distance = %g, want 0", m, d)
		}
	}
}

func TestIndexDisconnectedPairs(t *testing.T) {
	// Two grid components with no edge between them.
	side := 5
	block := graph.Grid(side)
	g := graph.New(2 * block.N())
	for _, e := range block.Edges() {
		g.AddEdge(e.From, e.To)
		g.AddEdge(block.N()+e.From, block.N()+e.To)
	}
	rng := rand.New(rand.NewSource(19))
	w := graph.UniformRandomWeights(g, 1, 2, rng)
	for _, m := range modes() {
		idx, err := Build(g, w, Options{Mode: m})
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		if d := idx.Distance(0, block.N()); !math.IsInf(d, 1) {
			t.Fatalf("mode %v: cross-component distance = %g, want +Inf", m, d)
		}
		checkEquivalence(t, g, w, idx, 100, rng)
	}
}

func TestIndexMultigraphSelfLoopsAndParallelEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.New(20)
	for i := 0; i < 19; i++ {
		g.AddEdge(i, i+1)
	}
	for q := 0; q < 30; q++ {
		u, v := rng.Intn(20), rng.Intn(20)
		g.AddEdge(u, v) // parallels and self-loops alike
	}
	w := graph.UniformRandomWeights(g, 0, 3, rng)
	for _, m := range modes() {
		idx, err := Build(g, w, Options{Mode: m})
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		checkEquivalence(t, g, w, idx, 120, rng)
	}
}

func TestIndexTinyGraphs(t *testing.T) {
	for _, m := range modes() {
		one := graph.New(1)
		idx, err := Build(one, nil, Options{Mode: m})
		if err != nil {
			t.Fatalf("mode %v on K1: %v", m, err)
		}
		if d := idx.Distance(0, 0); d != 0 {
			t.Fatalf("mode %v: self distance = %g", m, d)
		}
		two := graph.New(2)
		two.AddEdge(0, 1)
		idx, err = Build(two, []float64{1.5}, Options{Mode: m})
		if err != nil {
			t.Fatalf("mode %v on K2: %v", m, err)
		}
		if d := idx.Distance(0, 1); d != 1.5 {
			t.Fatalf("mode %v: distance = %g, want 1.5", m, d)
		}
	}
}

func TestBuildModeOffAndDirected(t *testing.T) {
	g := graph.Grid(3)
	w := graph.UniformWeights(g, 1)
	if idx, err := Build(g, w, Options{Mode: Off}); idx != nil || err != nil {
		t.Fatalf("Off: got (%v, %v), want (nil, nil)", idx, err)
	}
	dg := graph.NewDirected(3)
	dg.AddEdge(0, 1)
	dg.AddEdge(1, 2)
	dw := []float64{1, 1}
	if idx, err := Build(dg, dw, Options{Mode: Auto}); idx != nil || err != nil {
		t.Fatalf("Auto on directed: got (%v, %v), want (nil, nil)", idx, err)
	}
	for _, m := range []Mode{CH, ALT} {
		if _, err := Build(dg, dw, Options{Mode: m}); err == nil {
			t.Fatalf("mode %v on directed graph: expected error", m)
		}
	}
	if _, err := Build(g, []float64{1}, Options{Mode: CH}); err == nil {
		t.Fatal("wrong weight length: expected error")
	}
	neg := graph.UniformWeights(g, 1)
	neg[0] = -0.5
	if _, err := Build(g, neg, Options{Mode: CH}); err == nil {
		t.Fatal("negative weight: expected error")
	}
}

// TestCheckSize pins the int32 bound Build and Rehydrate enforce before
// prepare narrows vertex ids and half-edge offsets to int32.
func TestCheckSize(t *testing.T) {
	cases := []struct {
		n, m int
		ok   bool
	}{
		{0, 0, true},
		{math.MaxInt32, math.MaxInt32 / 2, true},
		{1, math.MaxInt32/2 + 1, false}, // 2m half-edges overflow
		{1, math.MaxInt32, false},
	}
	for _, c := range cases {
		if err := checkSize(c.n, c.m); (err == nil) != c.ok {
			t.Errorf("checkSize(%d, %d) = %v, want ok=%v", c.n, c.m, err, c.ok)
		}
	}
	if strconv.IntSize == 64 {
		over := int64(math.MaxInt32) + 1 // a variable: the constant overflows int on 32-bit hosts
		if err := checkSize(int(over), 0); err == nil {
			t.Errorf("checkSize(%d, 0) accepted more vertices than int32 ids hold", over)
		}
	}
}

func TestAutoFallsBackToALTOnDegeneracy(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// A sparse random graph has no hierarchy to exploit: contracting it
	// blows past the shortcut guard, so Auto must deliver the ALT
	// fallback — and still answer correctly.
	g := graph.ConnectedErdosRenyi(800, 3.0/800, rng)
	w := graph.UniformRandomWeights(g, 1, 2, rng)
	idx, err := Build(g, w, Options{Mode: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Kind() != "alt" {
		t.Fatalf("degenerate Auto build produced %q, want alt fallback", idx.Kind())
	}
	checkEquivalence(t, g, w, idx, 100, rng)
	// An explicit CH request ignores the guard and completes.
	idx, err = Build(g, w, Options{Mode: CH})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Kind() != "ch" {
		t.Fatalf("explicit CH produced %q", idx.Kind())
	}
	checkEquivalence(t, g, w, idx, 100, rng)
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"off", Off}, {"auto", Auto}, {"ch", CH}, {"alt", ALT}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMode(%q) = (%v, %v), want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("ParseMode(bogus): expected error")
	}
}

func TestIndexConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.Grid(12)
	w := graph.UniformRandomWeights(g, 0.5, 3, rng)
	n := g.N()
	type pair struct {
		s, t int
		want float64
	}
	pairs := make([]pair, 200)
	for i := range pairs {
		s, u := rng.Intn(n), rng.Intn(n)
		d, err := graph.QueryDistance(g, w, s, u)
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = pair{s, u, d}
	}
	for _, m := range []Mode{CH, ALT} {
		idx, err := Build(g, w, Options{Mode: m})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for wk := 0; wk < 8; wk++ {
			wg.Add(1)
			go func(off int) {
				defer wg.Done()
				for i := range pairs {
					p := pairs[(i+off)%len(pairs)]
					if got := idx.Distance(p.s, p.t); !distEqual(got, p.want) {
						t.Errorf("%s: concurrent Distance(%d, %d) = %g, want %g", idx.Kind(), p.s, p.t, got, p.want)
						return
					}
				}
			}(wk * 7)
		}
		wg.Wait()
	}
}

func TestPairCache(t *testing.T) {
	c := NewPairCache(1024)
	if _, ok := c.Get(1, 2); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(1, 2, 3.5)
	if d, ok := c.Get(1, 2); !ok || d != 3.5 {
		t.Fatalf("Get(1,2) = (%g, %v), want (3.5, true)", d, ok)
	}
	// Fill past capacity: the cache must stay usable.
	for i := 0; i < 10_000; i++ {
		c.Put(i, i+1, float64(i))
	}
	var wg sync.WaitGroup
	for wk := 0; wk < 8; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Put(wk*2000+i, i, float64(i))
				c.Get(i, i)
			}
		}(wk)
	}
	wg.Wait()
}
