package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/dpgraph"
	"repro/internal/graph"
	"repro/internal/traffic"
)

// input is everything the benchmark derives from its seed before any
// timed work: the road network, its private 08:00 travel times, the
// trip pool the point traffic draws from, and the error sample with its
// true distances.
type input struct {
	city    *traffic.City
	weights []float64
	// pool is the CommuteTrips pool of the point traffic; poolURLs are
	// their query strings.
	pool     []dpgraph.VertexPair
	poolURLs []string
	// errPairs is the error sample: errOrigins origins to errTargets
	// destinations each; truth holds their distances on the private
	// weights.
	errPairs []dpgraph.VertexPair
	truth    []float64
	// sources and targets split the vertices into two disjoint halves
	// for the batch traffic (see batchGen).
	sources, targets []int
	colStart         []int
	seconds          float64
}

// Defaults of traffic.Config, restated because newCity reproduces
// traffic.NewCity without calling it.
const (
	blockRemovalProb    = 0.1
	arterialEvery       = 4
	localTime           = 4.0
	arterialTime        = 2.0
	maxCongestionFactor = 4.0
)

// newCity returns the network traffic.NewCity(traffic.Config{Side:
// side}, rng) returns, drawing the same random numbers, in near-linear
// time. NewCity tries block removals in edge order and keeps a removal
// when the network stays connected, re-scanning the whole network each
// time. That greedy order is reverse-delete on candidate weights that
// fall with edge order, so the surviving candidates are the ones
// Kruskal keeps: start from every segment that is never removed, then
// add candidates in reverse order when they join two components.
func newCity(side int, rng *rand.Rand) *traffic.City {
	full := graph.Grid(side)
	arterialV := func(v int) (row, col bool) {
		i, j := v/side, v%side
		return i%arterialEvery == arterialEvery/2, j%arterialEvery == arterialEvery/2
	}
	segArterial := func(e graph.Edge) bool {
		ri, ci := arterialV(e.From)
		rj, cj := arterialV(e.To)
		if e.To-e.From == 1 {
			return ri && rj
		}
		return ci && cj
	}
	edges := full.Edges()
	keep := make([]bool, len(edges))
	uf := newUnionFind(full.N())
	var candidates []int
	for _, e := range edges {
		if !segArterial(e) && rng.Float64() < blockRemovalProb {
			candidates = append(candidates, e.ID)
			continue
		}
		keep[e.ID] = true
		uf.union(e.From, e.To)
	}
	for i := len(candidates) - 1; i >= 0; i-- {
		e := edges[candidates[i]]
		if uf.union(e.From, e.To) {
			keep[e.ID] = true
		}
	}
	g := graph.New(side * side)
	var freeFlow []float64
	var arterial []bool
	for _, e := range edges {
		if !keep[e.ID] {
			continue
		}
		g.AddEdge(e.From, e.To)
		art := segArterial(e)
		arterial = append(arterial, art)
		if art {
			freeFlow = append(freeFlow, arterialTime)
		} else {
			freeFlow = append(freeFlow, localTime)
		}
	}
	return &traffic.City{G: g, Side: side, FreeFlow: freeFlow, Arterial: arterial, MaxTime: localTime * maxCongestionFactor}
}

type unionFind struct{ parent []int32 }

func newUnionFind(n int) *unionFind {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int32 {
	for u.parent[x] != int32(x) {
		u.parent[x] = u.parent[u.parent[x]]
		x = int(u.parent[x])
	}
	return int32(x)
}

// union joins the sets of a and b and reports whether they were apart.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u.parent[ra] = rb
	return true
}

// newInput generates the seeded input.
func newInput(cfg *config) (*input, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(cfg.seed))
	city := newCity(cfg.side, rng)
	in := &input{city: city}
	in.weights = city.TravelTimes(traffic.CongestionModel{Hour: 8}, rng)
	for _, tr := range city.CommuteTrips(cfg.poolSize, 0, rng) {
		p := dpgraph.VertexPair{S: tr.From, T: tr.To}
		in.pool = append(in.pool, p)
		in.poolURLs = append(in.poolURLs, fmt.Sprintf("?s=%d&t=%d", p.S, p.T))
	}
	n := city.G.N()
	for i := 0; i < cfg.errOrigins; i++ {
		s := rng.Intn(n)
		tree, err := graph.Dijkstra(city.G, in.weights, s)
		if err != nil {
			return nil, fmt.Errorf("true distances: %w", err)
		}
		for j := 0; j < cfg.errTargets; j++ {
			t := rng.Intn(n)
			in.errPairs = append(in.errPairs, dpgraph.VertexPair{S: s, T: t})
			in.truth = append(in.truth, tree.Dist[t])
		}
	}
	perm := rng.Perm(n)
	in.sources, in.targets = perm[:n/2], perm[n/2:]
	in.colStart = make([]int, len(in.sources))
	for i := range in.colStart {
		in.colStart[i] = rng.Intn(len(in.targets))
	}
	in.seconds = time.Since(start).Seconds()
	return in, nil
}

// batchGen yields the batch traffic of one client. Batches alternate
// between a depot shape (one source, size distinct targets) and an
// unrelated shape (size independent trips). No unordered pair repeats
// within a run: sources and targets come from disjoint vertex halves,
// every source row hands out its targets in its own fixed order, and
// each client and shape owns its own source rows, so a pair is never
// generated twice. batch(k) is a pure function of k, which lets the
// checker regenerate any batch after the timed phase.
type batchGen struct {
	in     *input
	size   int
	depot  []int // source-row indices owned by the depot shape
	spread []int // source-row indices owned by the unrelated shape
}

// newBatchGen gives client (of clients) its share of the source rows.
func newBatchGen(in *input, size, client, clients int) *batchGen {
	g := &batchGen{in: in, size: size}
	for r := range in.sources {
		switch r % (2 * clients) {
		case 2 * client:
			g.depot = append(g.depot, r)
		case 2*client + 1:
			g.spread = append(g.spread, r)
		}
	}
	return g
}

// limit is the number of batches the generator can hand out before a
// source row runs out of targets.
func (g *batchGen) limit() int {
	nt := len(g.in.targets)
	depot := len(g.depot) * (nt / g.size)
	spread := len(g.spread) * nt / g.size
	return 2 * min(depot, spread)
}

// target returns the pos-th target of source row r.
func (g *batchGen) target(r, pos int) int {
	return g.in.targets[(g.in.colStart[r]+pos)%len(g.in.targets)]
}

// batch fills dst with batch k.
func (g *batchGen) batch(k int, dst []dpgraph.VertexPair) []dpgraph.VertexPair {
	dst = dst[:0]
	j := k / 2
	if k%2 == 0 {
		r := g.depot[j%len(g.depot)]
		round := j / len(g.depot)
		for i := 0; i < g.size; i++ {
			dst = append(dst, dpgraph.VertexPair{S: g.in.sources[r], T: g.target(r, round*g.size+i)})
		}
		return dst
	}
	for i := 0; i < g.size; i++ {
		u := j*g.size + i
		r := g.spread[u%len(g.spread)]
		dst = append(dst, dpgraph.VertexPair{S: g.in.sources[r], T: g.target(r, u/len(g.spread))})
	}
	return dst
}
