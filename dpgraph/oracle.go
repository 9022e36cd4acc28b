package dpgraph

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/graph/index"
)

// VertexPair is one (source, target) distance query for batch answering.
type VertexPair struct {
	S int `json:"s"`
	T int `json:"t"`
}

// DistanceOracle answers unboundedly many s-t distance queries from one
// materialized differentially private release. Constructing the release
// is the only step that touches the session accountant; every oracle
// query afterwards is pure post-processing — it charges zero budget,
// appends no receipts, and never contacts the private weights again.
//
// Oracles are safe for concurrent use by many goroutines, and the
// lookup-backed oracles (tree, hierarchy, all-pairs tables) allocate
// nothing per query in steady state.
//
// Exactness: an oracle's answers carry exactly the error of the release
// it was built from. Tree, hierarchy, and composition-table oracles are
// bounded-error (Bound gives the high-probability additive bound);
// covering-table oracles additionally carry the 2·K·MaxWeight assignment
// bias; synthetic-graph oracles answer exact shortest-path queries over
// the noisy weights, so a k-hop answer errs by at most k times the
// per-edge noise bound.
type DistanceOracle interface {
	// Distance returns the released estimate of the s-t distance. It is
	// zero when s == t and an error when either endpoint is out of range;
	// +Inf marks pairs the public topology disconnects.
	Distance(s, t int) (float64, error)
	// Distances answers a batch of queries, out[i] answering pairs[i].
	// Oracles that search (unindexed synthetic graphs) group the batch
	// by source so shared work is paid once.
	Distances(pairs []VertexPair) ([]float64, error)
	// DistancesInto is Distances into a buffer the caller owns: pairs[i]
	// is answered into out[i], and out must have exactly len(pairs)
	// elements. It allocates nothing in steady state, so callers that
	// serve high query rates (the HTTP daemon's batch and stream
	// handlers) reuse their buffers and the query path performs no heap
	// allocation on either side of the interface.
	DistancesInto(pairs []VertexPair, out []float64) error
	// Bound returns an additive error bound on any single answered
	// distance, holding except with probability gamma.
	Bound(gamma float64) float64
	// N returns the number of vertices the oracle serves; valid queries
	// are pairs in [0, N).
	N() int
}

// checkOracleVertices validates query endpoints against the oracle's
// vertex range.
func checkOracleVertices(n, s, t int) error {
	if s < 0 || s >= n || t < 0 || t >= n {
		return fmt.Errorf("dpgraph: oracle query (%d, %d) out of range [0, %d)", s, t, n)
	}
	return nil
}

// batchDistancesInto is the generic batch implementation: one Distance
// call per pair, failing fast on the first invalid pair.
func batchDistancesInto(o DistanceOracle, pairs []VertexPair, out []float64) error {
	if len(out) != len(pairs) {
		return fmt.Errorf("dpgraph: DistancesInto: %d result slots for %d pairs", len(out), len(pairs))
	}
	for i, p := range pairs {
		d, err := o.Distance(p.S, p.T)
		if err != nil {
			return err
		}
		out[i] = d
	}
	return nil
}

// lookupOracle adapts any O(1)-ish released lookup structure (tree SSSP +
// LCA, path hub hierarchy, all-pairs tables) to the DistanceOracle
// interface. The query closure is bound at construction; queries perform
// no allocation.
type lookupOracle struct {
	n     int
	query func(s, t int) float64
	bound func(gamma float64) float64
}

func (o *lookupOracle) N() int { return o.n }

func (o *lookupOracle) Distance(s, t int) (float64, error) {
	if err := checkOracleVertices(o.n, s, t); err != nil {
		return 0, err
	}
	if s == t {
		return 0, nil
	}
	return o.query(s, t), nil
}

func (o *lookupOracle) Distances(pairs []VertexPair) ([]float64, error) {
	out := make([]float64, len(pairs))
	if err := o.DistancesInto(pairs, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (o *lookupOracle) DistancesInto(pairs []VertexPair, out []float64) error {
	return batchDistancesInto(o, pairs, out)
}

func (o *lookupOracle) Bound(gamma float64) float64 { return o.bound(gamma) }

// syntheticOracle answers queries over a released (clamped) weight
// vector — by the pooled zero-alloc Dijkstra engine in internal/graph,
// or, when the session requested a query index, through a precomputed
// contraction-hierarchy/landmark structure plus a lock-free s-t result
// cache. The weights were clamped nonnegative at construction, so the
// unindexed path takes the trusted engine entry points and skips the
// O(E) validation scan.
type syntheticOracle struct {
	g     *graph.Graph
	w     []float64 // released weights clamped to [0, +Inf)
	bound func(gamma float64) float64

	// idx is nil for unindexed serving; cache is non-nil iff idx is.
	idx   index.Index
	cache *index.PairCache
}

func (o *syntheticOracle) N() int { return o.g.N() }

func (o *syntheticOracle) Distance(s, t int) (float64, error) {
	if err := checkOracleVertices(o.g.N(), s, t); err != nil {
		return 0, err
	}
	if o.idx != nil {
		return o.indexedDistance(s, t), nil
	}
	return graph.QueryDistanceTrusted(o.g, o.w, s, t)
}

// indexedDistance serves one validated point query from the result
// cache, falling through to the index on a miss. Indexes exist only for
// undirected topologies, so both orientations share one cache entry.
func (o *syntheticOracle) indexedDistance(s, t int) float64 {
	if s == t {
		return 0
	}
	if s > t {
		s, t = t, s
	}
	if d, ok := o.cache.Get(s, t); ok {
		return d
	}
	d := o.idx.Distance(s, t)
	o.cache.Put(s, t, d)
	return d
}

// pairSorter orders a batch's index permutation by (source, target). It
// is a concrete sort.Interface so the batch path can sort through a
// pooled value without the closure allocation sort.Slice would cost.
type pairSorter struct {
	order []int
	pairs []VertexPair
}

func (ps *pairSorter) Len() int      { return len(ps.order) }
func (ps *pairSorter) Swap(i, j int) { ps.order[i], ps.order[j] = ps.order[j], ps.order[i] }
func (ps *pairSorter) Less(i, j int) bool {
	pa, pb := ps.pairs[ps.order[i]], ps.pairs[ps.order[j]]
	if pa.S != pb.S {
		return pa.S < pb.S
	}
	return pa.T < pb.T
}

// batchScratch is the reusable workspace of one unindexed batch:
// the (source, target) permutation, the per-run deduplicated target
// list, and the per-run result buffer. Pooled so steady-state batches
// allocate nothing.
type batchScratch struct {
	sorter  pairSorter
	targets []int
	buf     []float64
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// Distances answers a batch into a fresh slice; see DistancesInto.
func (o *syntheticOracle) Distances(pairs []VertexPair) ([]float64, error) {
	out := make([]float64, len(pairs))
	if err := o.DistancesInto(pairs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DistancesInto answers a batch. Indexed, every pair is answered in
// place straight from the index, oriented s < t as Distance asks it, so
// the answers are Distance's bit for bit. Batches skip the
// result cache: their pairs rarely repeat, so they would pay for a
// lookup and a store per pair and almost never hit. Unindexed, the
// batch is ordered by (source, target) so each distinct source's
// deduplicated targets cost one early-exit multi-target Dijkstra.
func (o *syntheticOracle) DistancesInto(pairs []VertexPair, out []float64) error {
	if len(out) != len(pairs) {
		return fmt.Errorf("dpgraph: DistancesInto: %d result slots for %d pairs", len(out), len(pairs))
	}
	n := o.g.N()
	for _, p := range pairs {
		if err := checkOracleVertices(n, p.S, p.T); err != nil {
			return err
		}
	}
	if o.idx != nil {
		for i, p := range pairs {
			s, t := p.S, p.T
			if s > t {
				s, t = t, s
			}
			out[i] = o.idx.Distance(s, t)
		}
		return nil
	}
	ws := batchScratchPool.Get().(*batchScratch)
	order := ws.sorter.order[:0]
	for i := range pairs {
		order = append(order, i)
	}
	ws.sorter.order, ws.sorter.pairs = order, pairs
	sort.Sort(&ws.sorter)
	targets := ws.targets
	buf := ws.buf
	var retErr error
	for lo := 0; lo < len(order); {
		s := pairs[order[lo]].S
		hi := lo
		for hi < len(order) && pairs[order[hi]].S == s {
			hi++
		}
		// Targets arrive sorted within the run; collapse duplicates.
		targets = targets[:0]
		for k := lo; k < hi; k++ {
			t := pairs[order[k]].T
			if len(targets) == 0 || targets[len(targets)-1] != t {
				targets = append(targets, t)
			}
		}
		if cap(buf) < len(targets) {
			buf = make([]float64, len(targets))
		}
		buf = buf[:len(targets)]
		if retErr = graph.QueryDistancesFromTrusted(o.g, o.w, s, targets, buf); retErr != nil {
			break
		}
		ti := 0
		for k := lo; k < hi; k++ {
			for targets[ti] != pairs[order[k]].T {
				ti++
			}
			out[order[k]] = buf[ti]
		}
		lo = hi
	}
	// Drop the caller's pairs before pooling so the workspace retains
	// only its own buffers.
	ws.sorter.pairs = nil
	ws.targets, ws.buf = targets, buf
	batchScratchPool.Put(ws)
	return retErr
}

func (o *syntheticOracle) Bound(gamma float64) float64 { return o.bound(gamma) }

// CacheStats reports the result-cache hit/miss counters of an indexed
// oracle; ok is false on the unindexed path, which has no cache. Only
// point queries consult the cache, so the counters count point lookups;
// batch pairs go straight to the index. The serving layer reads these
// for its /metrics endpoint.
func (o *syntheticOracle) CacheStats() (hits, misses uint64, ok bool) {
	if o.cache == nil {
		return 0, 0, false
	}
	hits, misses = o.cache.Stats()
	return hits, misses, true
}
