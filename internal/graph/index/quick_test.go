package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

var quickCfg = &quick.Config{MaxCount: 30}

// TestQuickIndexedEqualsDijkstra: on arbitrary random multigraphs (all
// three buildable modes), the indexed distance equals the Dijkstra
// distance for arbitrary pairs, including unreachable ones.
func TestQuickIndexedEqualsDijkstra(t *testing.T) {
	f := func(seed int64, a, b uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(a%50)
		g := graph.ErdosRenyi(n, 3/float64(n), rng)
		// Sprinkle parallels and self-loops: indexes must simplify.
		for q := 0; q < int(b%10); q++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		w := graph.UniformRandomWeights(g, 0, 4, rng)
		for i := range w {
			if rng.Float64() < 0.1 {
				w[i] = 0 // exercise zero-weight edges
			}
		}
		for _, m := range []Mode{Auto, CH, ALT, HL} {
			idx, err := Build(g, w, Options{Mode: m})
			if err != nil {
				return false
			}
			for q := 0; q < 30; q++ {
				s, u := rng.Intn(n), rng.Intn(n)
				want, err := graph.QueryDistance(g, w, s, u)
				if err != nil {
					return false
				}
				if !distEqual(idx.Distance(s, u), want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickIndexSymmetric: on undirected graphs the indexed distance is
// symmetric, zero on the diagonal, and respects the triangle
// inequality through a random midpoint.
func TestQuickIndexSymmetric(t *testing.T) {
	f := func(seed int64, a uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(a%40)
		g := graph.ConnectedErdosRenyi(n, 2/float64(n), rng)
		w := graph.UniformRandomWeights(g, 0, 5, rng)
		for _, m := range []Mode{CH, ALT, HL} {
			idx, err := Build(g, w, Options{Mode: m})
			if err != nil {
				return false
			}
			x, y, z := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			dxy, dyx := idx.Distance(x, y), idx.Distance(y, x)
			if !distEqual(dxy, dyx) || idx.Distance(x, x) != 0 {
				return false
			}
			if idx.Distance(x, z) > idx.Distance(x, y)+idx.Distance(y, z)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
