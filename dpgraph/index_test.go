package dpgraph

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// indexModes are the index-building modes the property tests sweep
// (IndexOff is the reference each is compared against).
var indexModes = []QueryIndexMode{IndexAuto, IndexCH, IndexALT, IndexHL}

// indexDistEqual compares distances up to float summation order (an
// indexed answer may sum the same path's weights in different order).
func indexDistEqual(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9 || diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// sessionOracle materializes one release of the named kind from a
// fresh deterministic session and returns its oracle. Identical seeds
// give identical releases, so oracles from sessions differing only in
// WithQueryIndex must answer identically.
func sessionOracle(t testing.TB, kind string, g *Graph, w []float64, seed int64, mode QueryIndexMode) DistanceOracle {
	t.Helper()
	pg, err := New(g, PrivateWeights(w), WithEpsilon(1), WithDeterministicSeed(seed), WithQueryIndex(mode))
	if err != nil {
		t.Fatal(err)
	}
	var oracle DistanceOracle
	switch kind {
	case "release":
		rel, err := pg.Release()
		if err != nil {
			t.Fatal(err)
		}
		oracle = rel.Oracle()
	case "treesssp":
		rel, err := pg.TreeSingleSource(0)
		if err != nil {
			t.Fatal(err)
		}
		oracle = rel.Oracle()
	case "treedist":
		rel, err := pg.TreeAllPairs()
		if err != nil {
			t.Fatal(err)
		}
		oracle = rel.Oracle()
	case "hierarchy":
		rel, err := pg.PathHierarchy(2)
		if err != nil {
			t.Fatal(err)
		}
		oracle = rel.Oracle()
	case "apsd":
		rel, err := pg.AllPairsDistances()
		if err != nil {
			t.Fatal(err)
		}
		oracle = rel.Oracle()
	default:
		t.Fatalf("unknown oracle kind %q", kind)
	}
	return oracle
}

// topologyFor builds the topology family each oracle kind requires.
func topologyFor(kind string, n int, rng *rand.Rand) *Graph {
	switch kind {
	case "treesssp", "treedist":
		return randomTestTree(n, rng)
	case "hierarchy":
		return PathGraph(n)
	default:
		g := randomTestTree(n, rng) // spanning tree keeps it connected-ish
		for q := 0; q < n/2; q++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		return g
	}
}

// randomTestTree attaches each vertex to a uniform earlier one.
func randomTestTree(n int, rng *rand.Rand) *Graph {
	g := NewGraph(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v)
	}
	return g
}

// TestOracleIndexedQuickEquivalence is the randomized property test of
// the indexed serving path: for every oracle-bearing result type and
// every index mode, a session that differs only by WithQueryIndex
// answers every queried pair identically to the unindexed session.
func TestOracleIndexedQuickEquivalence(t *testing.T) {
	kinds := []string{"release", "treesssp", "treedist", "hierarchy", "apsd"}
	f := func(seed int64, a uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(a%30)
		for _, kind := range kinds {
			g := topologyFor(kind, n, rng)
			w := UniformRandomWeights(g, 0, 4, rng)
			base := sessionOracle(t, kind, g, w, seed, IndexOff)
			for _, mode := range indexModes {
				indexed := sessionOracle(t, kind, g, w, seed, mode)
				for q := 0; q < 25; q++ {
					s, u := rng.Intn(n), rng.Intn(n)
					want, err := base.Distance(s, u)
					if err != nil {
						return false
					}
					got, err := indexed.Distance(s, u)
					if err != nil {
						return false
					}
					if !indexDistEqual(got, want) {
						t.Logf("%s/%v: Distance(%d,%d) = %g, unindexed %g", kind, mode, s, u, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestOracleIndexedBatchMatchesPointQueries: the deduplicating batch
// path (repeated sources, repeated targets, repeated whole pairs) must
// agree with point queries, indexed or not.
func TestOracleIndexedBatchMatchesPointQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := Grid(9)
	w := UniformRandomWeights(g, 0.5, 3, rng)
	n := g.N()
	pairs := make([]VertexPair, 0, 120)
	for i := 0; i < 40; i++ {
		p := VertexPair{S: rng.Intn(n), T: rng.Intn(n)}
		// Triplicate every pair so sources, targets, and whole pairs all
		// repeat within the batch.
		pairs = append(pairs, p, p, VertexPair{S: p.S, T: rng.Intn(n)})
	}
	for _, mode := range append([]QueryIndexMode{IndexOff}, indexModes...) {
		oracle := sessionOracle(t, "release", g, w, 7, mode)
		got, err := oracle.Distances(pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			want, err := oracle.Distance(p.S, p.T)
			if err != nil {
				t.Fatal(err)
			}
			if !indexDistEqual(got[i], want) {
				t.Fatalf("mode %v: batch[%d] = %g, point query %g", mode, i, got[i], want)
			}
		}
	}
	// Invalid pairs must fail without partial answers.
	oracle := sessionOracle(t, "release", g, w, 7, IndexCH)
	if _, err := oracle.Distances([]VertexPair{{S: 0, T: 1}, {S: -1, T: 3}}); err == nil {
		t.Fatal("batch with out-of-range pair: expected error")
	}
}

// TestOracleRepeatedSourceBatch drives the one-to-many paths: a batch
// whose every pair shares one source must agree bit for bit with point
// queries for every index mode, including the unindexed reference.
// Batch and point answers come from two oracles of the same seeded
// release, so no answer reaches the other side through the result
// cache. Unindexed, the batch runs one multi-target Dijkstra per
// source; indexed, it answers pair by pair.
func TestOracleRepeatedSourceBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := Grid(16) // 256 distinct targets from one source
	w := UniformRandomWeights(g, 0.5, 3, rng)
	n := g.N()
	pairs := make([]VertexPair, 0, 2*n)
	for v := 0; v < n; v++ {
		pairs = append(pairs, VertexPair{S: 3, T: v})
	}
	// A second, smaller source-run rides along so the grouping loop
	// handles mixed run sizes in one batch.
	for v := 0; v < 8; v++ {
		pairs = append(pairs, VertexPair{S: n - 1, T: v * 7 % n})
	}
	for _, mode := range append([]QueryIndexMode{IndexOff}, indexModes...) {
		got, err := sessionOracle(t, "release", g, w, 29, mode).Distances(pairs)
		if err != nil {
			t.Fatal(err)
		}
		point := sessionOracle(t, "release", g, w, 29, mode)
		for i, p := range pairs {
			want, err := point.Distance(p.S, p.T)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("mode %v: batch[%d] (%d,%d) = %v, point query %v", mode, i, p.S, p.T, got[i], want)
			}
		}
	}
}

// TestOracleIndexedConcurrent hammers one indexed oracle (index plus
// shared result cache) from many goroutines under -race.
func TestOracleIndexedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := Grid(8)
	w := UniformRandomWeights(g, 0.5, 2, rng)
	n := g.N()
	for _, mode := range []QueryIndexMode{IndexCH, IndexALT, IndexHL} {
		oracle := sessionOracle(t, "release", g, w, 11, mode)
		want := make([]float64, n)
		for v := 0; v < n; v++ {
			d, err := oracle.Distance(0, v)
			if err != nil {
				t.Fatal(err)
			}
			want[v] = d
		}
		var wg sync.WaitGroup
		for wk := 0; wk < 8; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					v := (i + wk*13) % n
					d, err := oracle.Distance(0, v)
					if err != nil {
						t.Error(err)
						return
					}
					if !indexDistEqual(d, want[v]) {
						t.Errorf("mode %v: concurrent Distance(0,%d) = %g, want %g", mode, v, d, want[v])
						return
					}
				}
			}(wk)
		}
		wg.Wait()
	}
}

// TestOracleIndexedSessionValidation: explicit index families reject
// directed topologies at session construction, IndexAuto accepts them
// (serving unindexed), and bad mode values are rejected by the option.
func TestOracleIndexedSessionValidation(t *testing.T) {
	dg := NewDirectedGraph(3)
	dg.AddEdge(0, 1)
	dg.AddEdge(1, 2)
	w := []float64{1, 1}
	for _, mode := range []QueryIndexMode{IndexCH, IndexALT, IndexHL} {
		if _, err := New(dg, PrivateWeights(w), WithQueryIndex(mode)); err == nil {
			t.Fatalf("WithQueryIndex(%v) on a directed topology: expected error", mode)
		}
	}
	pg, err := New(dg, PrivateWeights(w), WithQueryIndex(IndexAuto), WithDeterministicSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := pg.Release()
	if err != nil {
		t.Fatal(err)
	}
	if d, err := rel.Oracle().Distance(0, 2); err != nil || math.IsInf(d, 1) {
		t.Fatalf("directed auto oracle Distance(0,2) = (%g, %v)", d, err)
	}
	if _, err := New(PathGraph(3), PrivateWeights(w), WithQueryIndex(QueryIndexMode(99))); err == nil {
		t.Fatal("invalid mode value: expected error")
	}
	// A result without session topology (e.g. rehydrated from JSON)
	// reports an error rather than panicking.
	rehydrated := &SyntheticGraph{Weights: []float64{1, 2}}
	if _, err := rehydrated.IndexedOracle(IndexCH); err == nil {
		t.Fatal("IndexedOracle on topology-less result: expected error")
	}
	// IndexedOracle with an explicit mode overrides the session default.
	pg2, err := New(Grid(4), PrivateWeights(UniformRandomWeights(Grid(4), 1, 2, rand.New(rand.NewSource(3)))), WithDeterministicSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := pg2.Release()
	if err != nil {
		t.Fatal(err)
	}
	forced, err := rel2.IndexedOracle(IndexCH)
	if err != nil {
		t.Fatal(err)
	}
	dflt := rel2.Oracle()
	for v := 0; v < forced.N(); v++ {
		a, err1 := forced.Distance(0, v)
		b, err2 := dflt.Distance(0, v)
		if err1 != nil || err2 != nil || !indexDistEqual(a, b) {
			t.Fatalf("IndexedOracle(ch) vs default: (%g,%v) vs (%g,%v)", a, err1, b, err2)
		}
	}
}
