//go:build census

// The Auto/ALT census behind EXPERIMENTS.md E28: which family Auto
// builds on each topology class, and whether ALT — Auto's fallback
// when contraction degenerates — beats unindexed Dijkstra where Auto
// actually reaches it. It fails when a row's Auto build falls to a
// worse family than the one it reaches today. Every row but the city
// carries U[1,2] weights; on Grid(225) that narrow range once made
// Auto give up on a plain grid. It takes under a minute, but builds
// far more than a unit test should, so it sits behind a build tag:
//
//	go test -tags census -run TestAutoCensus -v -timeout 10m ./internal/graph/index
package index_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graph/index"
	"repro/internal/traffic"
)

func TestAutoCensus(t *testing.T) {
	// want is the family each row's Auto build must reach at least, in
	// the order alt < ch < hl: a change may move a row up, never down.
	type row struct {
		name string
		g    *graph.Graph
		w    []float64
		want string
	}
	weighted := func(name string, g *graph.Graph, seed int64) row {
		return row{name, g, graph.UniformRandomWeights(g, 1, 2, rand.New(rand.NewSource(seed))), "hl"}
	}
	city, err := traffic.NewCity(traffic.Config{Side: 55}, rand.New(rand.NewSource(55)))
	if err != nil {
		t.Fatal(err)
	}
	rows := []row{
		weighted("Grid(55)", graph.Grid(55), 1),
		weighted("Grid(225)", graph.Grid(225), 1),
		{"traffic city, side 55", city.G, city.FreeFlow, "hl"},
		weighted("RandomTree(3000)", graph.RandomTree(3000, rand.New(rand.NewSource(2))), 3),
		weighted("Star(3000)", graph.Star(3000), 4),
		weighted("Complete(100)", graph.Complete(100), 5),
		weighted("CompleteBipartite(60,60)", graph.CompleteBipartite(60, 60), 6),
	}
	for _, d := range []int{3, 4, 6, 8, 12, 16, 24} {
		rng := rand.New(rand.NewSource(int64(100 + d)))
		g := graph.ConnectedErdosRenyi(3000, float64(d)/3000, rng)
		rows = append(rows, row{fmt.Sprintf("ConnectedErdosRenyi(3000, %d/3000)", d), g, graph.UniformRandomWeights(g, 1, 2, rng), "alt"})
	}

	t.Logf("| topology | n | m | Auto builds | Auto build | ALT build | ALT query | Dijkstra query |")
	t.Logf("|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		start := time.Now()
		auto, err := index.Build(r.g, r.w, index.Options{Mode: index.Auto})
		if err != nil {
			t.Fatalf("%s: Auto: %v", r.name, err)
		}
		autoBuild := time.Since(start)
		if rank := map[string]int{"alt": 0, "ch": 1, "hl": 2}; rank[auto.Kind()] < rank[r.want] {
			t.Errorf("%s: Auto built %s, want at least %s", r.name, auto.Kind(), r.want)
		}
		start = time.Now()
		alt, err := index.Build(r.g, r.w, index.Options{Mode: index.ALT})
		if err != nil {
			t.Fatalf("%s: ALT: %v", r.name, err)
		}
		altBuild := time.Since(start)

		rng := rand.New(rand.NewSource(7))
		const queries = 500
		pairs := make([][2]int, queries)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(r.g.N()), rng.Intn(r.g.N())}
		}
		start = time.Now()
		for _, p := range pairs {
			alt.Distance(p[0], p[1])
		}
		altQuery := time.Since(start) / queries
		start = time.Now()
		for _, p := range pairs {
			if _, err := graph.QueryDistanceTrusted(r.g, r.w, p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
		dijkstraQuery := time.Since(start) / queries

		t.Logf("| %s | %d | %d | %s | %s | %s | %.1f µs | %.1f µs |", r.name, r.g.N(), r.g.M(), auto.Kind(),
			autoBuild.Round(time.Millisecond), altBuild.Round(time.Millisecond),
			float64(altQuery.Nanoseconds())/1e3, float64(dijkstraQuery.Nanoseconds())/1e3)
	}
}
