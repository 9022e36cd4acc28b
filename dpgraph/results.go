package dpgraph

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/graph/index"
)

// Receipt records one successful release charged to the session
// accountant: which mechanism ran, what it cost, and when.
type Receipt struct {
	Mechanism string    `json:"mechanism"`
	Epsilon   float64   `json:"epsilon"`
	Delta     float64   `json:"delta,omitempty"`
	Time      time.Time `json:"time"`
}

func (r Receipt) String() string {
	if r.Delta > 0 {
		return fmt.Sprintf("%s: (ε=%g, δ=%g) at %s", r.Mechanism, r.Epsilon, r.Delta, r.Time.Format(time.RFC3339))
	}
	return fmt.Sprintf("%s: ε=%g at %s", r.Mechanism, r.Epsilon, r.Time.Format(time.RFC3339))
}

// ReleaseInfo is the metadata common to every typed result. Result
// types embed it, so r.Receipt, r.Epsilon, etc. are directly accessible.
type ReleaseInfo struct {
	// Mechanism is the registry name of the mechanism that produced this
	// release.
	Mechanism string `json:"mechanism"`
	// Epsilon and Delta are the privacy cost charged for the release.
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta,omitempty"`
	// NoiseScale is the Laplace scale of the released values (for
	// mechanisms with a single per-value scale).
	NoiseScale float64 `json:"noise_scale,omitempty"`
	// Receipt is the ledger entry recorded for this release.
	Receipt Receipt `json:"receipt"`
}

// Info returns the release metadata; it makes every embedding result
// satisfy the Result interface's metadata half.
func (ri ReleaseInfo) Info() ReleaseInfo { return ri }

// Result is the interface satisfied by every typed mechanism result.
type Result interface {
	// Info returns the release metadata (mechanism, cost, receipt).
	Info() ReleaseInfo
	// Bound returns a high-probability additive error bound on the
	// released value(s): it holds except with probability gamma.
	Bound(gamma float64) float64
	// Summary renders a short human-readable description of the release.
	Summary() string
}

// Detailer is implemented by results whose released artifact (edge
// lists, weight vectors) does not fit in Summary; Detail renders it in
// full so consumers are not forced to re-release.
type Detailer interface {
	Detail() string
}

// DistanceResult is one privately released s-t distance.
type DistanceResult struct {
	ReleaseInfo
	Source int     `json:"source"`
	Target int     `json:"target"`
	Value  float64 `json:"value"`
}

// Bound returns t with Pr[|noise| > t] <= gamma for the single Laplace
// draw the release added.
func (r *DistanceResult) Bound(gamma float64) float64 {
	return dp.NewLaplace(r.NoiseScale).TailBound(gamma)
}

func (r *DistanceResult) Summary() string {
	return fmt.Sprintf("private distance %d -> %d: %.4f (noise scale %.4g)", r.Source, r.Target, r.Value, r.NoiseScale)
}

// CostResult is one privately released scalar statistic (e.g. MST cost).
type CostResult struct {
	ReleaseInfo
	Value float64 `json:"value"`
}

// Bound returns the single-draw Laplace tail bound at gamma.
func (r *CostResult) Bound(gamma float64) float64 {
	return dp.NewLaplace(r.NoiseScale).TailBound(gamma)
}

func (r *CostResult) Summary() string {
	return fmt.Sprintf("%s: %.4f (noise scale %.4g)", r.Mechanism, r.Value, r.NoiseScale)
}

// QueryResult is a single-pair answer extracted from a released
// all-pairs structure by the registry runners; the error bound is the
// underlying release's.
type QueryResult struct {
	ReleaseInfo
	Source int     `json:"source"`
	Target int     `json:"target"`
	Value  float64 `json:"value"`

	bound func(gamma float64) float64
}

func (r *QueryResult) Bound(gamma float64) float64 { return r.bound(gamma) }

func (r *QueryResult) Summary() string {
	return fmt.Sprintf("%s %d -> %d: %.4f", r.Mechanism, r.Source, r.Target, r.Value)
}

// APSDResult is a released all-pairs distance structure, either by
// per-pair composition (AllPairsDistances) or by a vertex covering
// (CoveringAllPairs, BoundedAllPairs).
type APSDResult struct {
	ReleaseInfo
	// K is the covering radius in hops (0 for the composition baseline).
	K int `json:"k,omitempty"`
	// CoveringSize is |Z| for covering-based releases (0 otherwise).
	CoveringSize int `json:"covering_size,omitempty"`

	n       int
	queries int // noisy values released by the composition baseline
	apsd    *core.APSD
	cov     *core.CoveringRelease

	oracleOnce sync.Once
	oracle     DistanceOracle
}

// Oracle returns a table-backed DistanceOracle over the released
// all-pairs structure: construction charged the budget once, and every
// query is a free table lookup (bounded-error; for covering releases the
// bound includes the 2·K·MaxWeight assignment bias). Callers should
// query the oracle instead of indexing raw matrices.
func (r *APSDResult) Oracle() DistanceOracle {
	r.oracleOnce.Do(func() {
		r.oracle = &lookupOracle{n: r.n, query: r.Distance, bound: r.Bound}
	})
	return r.oracle
}

// Distance returns the released estimate of the s-t distance. Pure
// post-processing: no additional privacy cost.
func (r *APSDResult) Distance(s, t int) float64 {
	if s == t {
		return 0
	}
	if r.cov != nil {
		return r.cov.Query(s, t)
	}
	return r.apsd.Query(s, t)
}

// Matrix materializes all-pairs estimates.
func (r *APSDResult) Matrix() [][]float64 {
	if r.cov != nil {
		return r.cov.Matrix(r.n)
	}
	d := make([][]float64, r.n)
	for s := range d {
		d[s] = append([]float64(nil), r.apsd.Dist[s]...)
	}
	return d
}

// Bound returns the additive error bound holding for every pair
// simultaneously except with probability gamma.
func (r *APSDResult) Bound(gamma float64) float64 {
	if r.cov != nil {
		return r.cov.ErrorBound(gamma)
	}
	return dp.UnionTailBound(r.NoiseScale, r.queries, gamma)
}

func (r *APSDResult) Summary() string {
	if r.cov != nil {
		return fmt.Sprintf("%s: all-pairs distances via %d-covering of %d vertices (noise scale %.4g)",
			r.Mechanism, r.K, r.CoveringSize, r.NoiseScale)
	}
	return fmt.Sprintf("%s: all-pairs distances over %d vertices (noise scale %.4g)", r.Mechanism, r.n, r.NoiseScale)
}

// SyntheticGraph is an eps-DP synthetic weight vector for the public
// topology. Every computation on it is post-processing and inherits the
// privacy guarantee at no further cost.
type SyntheticGraph struct {
	ReleaseInfo
	// Weights is the released noisy weight vector (may contain negative
	// entries; Distance/AllPairs clamp at zero before searching).
	Weights []float64 `json:"weights"`

	g         *graph.Graph
	indexMode QueryIndexMode // session's WithQueryIndex setting

	oracleOnce sync.Once
	oracle     DistanceOracle
}

// Oracle returns a DistanceOracle that answers queries by shortest-path
// search over the released weights (clamped at zero). By default that
// is the pooled zero-allocation Dijkstra engine; under the session's
// WithQueryIndex mode the oracle instead builds a precomputed speedup
// index (contraction hierarchy or landmark A*) once, plus a lock-free
// s-t result cache — identical answers, orders of magnitude faster on
// large graphs. Answers are exact shortest paths of the synthetic
// graph; against the true weights a k-hop answer errs by at most k
// times the per-edge noise bound, so Bound reports the worst-case
// (V-1)-hop figure.
func (r *SyntheticGraph) Oracle() DistanceOracle {
	r.oracleOnce.Do(func() {
		o, err := r.IndexedOracle(r.indexMode)
		if err != nil {
			// New validated the mode against the topology; reaching this
			// means the result was built outside a session.
			panic("dpgraph: SyntheticGraph.Oracle: " + err.Error())
		}
		r.oracle = o
	})
	return r.oracle
}

// IndexedOracle returns a fresh DistanceOracle serving this release
// under an explicit index mode, independent of the session setting
// (Oracle caches one oracle under the session mode; this builds anew
// on every call). It errs when the mode requires an index the topology
// cannot carry (IndexCH/IndexALT on directed graphs).
func (r *SyntheticGraph) IndexedOracle(mode QueryIndexMode) (DistanceOracle, error) {
	if r.g == nil {
		// A result rehydrated from JSON carries no topology; the oracle
		// needs the session it was released from.
		return nil, fmt.Errorf("dpgraph: SyntheticGraph.IndexedOracle needs a result obtained from a PrivateGraph session (no topology attached)")
	}
	hops := r.g.N() - 1
	if hops < 1 {
		hops = 1
	}
	o := &syntheticOracle{
		g: r.g,
		w: graph.ClampWeights(r.Weights, 0, graph.Inf),
		bound: func(gamma float64) float64 {
			return float64(hops) * r.Bound(gamma)
		},
	}
	idx, err := index.Build(o.g, o.w, index.Options{Mode: mode.indexMode()})
	if err != nil {
		return nil, err
	}
	if idx != nil {
		o.idx = idx
		o.cache = index.NewPairCache(0)
	}
	return o, nil
}

// Distance answers an s-t distance query on the synthetic weights.
func (r *SyntheticGraph) Distance(s, t int) (float64, error) {
	return graph.Distance(r.g, graph.ClampWeights(r.Weights, 0, graph.Inf), s, t)
}

// AllPairs answers all-pairs distances on the synthetic weights.
func (r *SyntheticGraph) AllPairs() ([][]float64, error) {
	return graph.AllPairsDistances(r.g, graph.ClampWeights(r.Weights, 0, graph.Inf))
}

// Bound returns the per-edge noise bound holding for all edges
// simultaneously except with probability gamma; a k-hop path's weight is
// preserved to within k times this.
func (r *SyntheticGraph) Bound(gamma float64) float64 {
	if len(r.Weights) == 0 {
		return 0
	}
	return dp.UnionTailBound(r.NoiseScale, len(r.Weights), gamma)
}

func (r *SyntheticGraph) Summary() string {
	return fmt.Sprintf("synthetic weight vector for %d edges (noise scale %.4g)", len(r.Weights), r.NoiseScale)
}

// Detail renders the full synthetic graph as JSON (the released
// artifact; safe to publish).
func (r *SyntheticGraph) Detail() string {
	data, err := graph.MarshalJSONGraph(r.g, r.Weights)
	if err != nil {
		return fmt.Sprintf("error rendering synthetic graph: %v", err)
	}
	return string(data)
}

// PathsResult is the Algorithm 3 release: a shifted noisy weight vector
// from which shortest paths between all pairs are extracted as
// post-processing, biased toward few-hop paths.
type PathsResult struct {
	ReleaseInfo
	// Shift is the deterministic per-edge overestimate bias.
	Shift float64 `json:"shift"`

	mu sync.Mutex // guards the release's lazy per-source tree cache
	pp *core.PrivatePaths
}

// Path returns the released s-t path as edge IDs.
func (r *PathsResult) Path(s, t int) ([]int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pp.Path(s, t)
}

// PathVertices returns the released s-t path as a vertex sequence.
func (r *PathsResult) PathVertices(s, t int) ([]int, error) {
	path, err := r.Path(s, t)
	if err != nil {
		return nil, err
	}
	return r.pp.G.PathVertices(s, path), nil
}

// ReleasedWeights returns the released weight vector (safe to publish).
func (r *PathsResult) ReleasedWeights() []float64 {
	return append([]float64(nil), r.pp.Weights...)
}

// BoundKHops returns the Theorem 5.5 excess-weight bound for pairs
// joined by a k-hop shortest path: if a k-hop path of weight W exists,
// the released path's true weight is at most W + k*(Shift +
// (Scale/eps)*log(E/gamma)), except with probability gamma. The Shift
// term is fixed by the session gamma at release time; only the noise
// tail rescales with the gamma requested here.
func (r *PathsResult) BoundKHops(k int, gamma float64) float64 {
	m := r.pp.G.M()
	return float64(k) * (r.Shift + r.NoiseScale*math.Log(float64(m)/gamma))
}

// Bound returns the worst-case (k = V) excess-weight bound at gamma
// (Corollary 5.6).
func (r *PathsResult) Bound(gamma float64) float64 {
	return r.BoundKHops(r.pp.G.N(), gamma)
}

func (r *PathsResult) Summary() string {
	return fmt.Sprintf("private shortest-path release over %d edges (noise scale %.4g, shift %.4g)",
		r.pp.G.M(), r.NoiseScale, r.Shift)
}

// PathQueryResult is one released route extracted from a PathsResult by
// the registry runner.
type PathQueryResult struct {
	ReleaseInfo
	Source   int   `json:"source"`
	Target   int   `json:"target"`
	EdgeIDs  []int `json:"edge_ids"`
	Vertices []int `json:"vertices"`
	// ReleasedLength is the path's weight under the released vector.
	ReleasedLength float64 `json:"released_length"`

	release *PathsResult
}

// Bound returns the worst-case excess-weight bound of the underlying
// release at gamma.
func (r *PathQueryResult) Bound(gamma float64) float64 { return r.release.Bound(gamma) }

func (r *PathQueryResult) Summary() string {
	return fmt.Sprintf("private path %d -> %d (%d hops, released length %.4f): %v",
		r.Source, r.Target, len(r.EdgeIDs), r.ReleasedLength, r.Vertices)
}

// TreeSSSPResult is the Algorithm 1 release: distances from a root to
// every vertex of a tree with polylog(V) error.
type TreeSSSPResult struct {
	ReleaseInfo
	Root int `json:"root"`
	// Dist[v] is the released estimate of the root-v distance.
	Dist []float64 `json:"dist"`
	// Levels is the recursion depth bound L = ceil(log2 V).
	Levels int `json:"levels"`
	// Released counts the noisy values drawn (at most 2V).
	Released int `json:"released"`

	g *graph.Graph

	oracleOnce sync.Once
	oracle     DistanceOracle
}

// Bound returns the per-vertex error bound holding except with
// probability gamma.
func (r *TreeSSSPResult) Bound(gamma float64) float64 {
	return dp.SumTailBound(r.NoiseScale, 2*r.Levels, gamma)
}

// Oracle returns a DistanceOracle answering any pair (x, y) of the tree
// from the single root-distance release via the public LCA structure:
// d(x, y) = d(r, x) + d(r, y) - 2·d(r, lca(x, y)), an O(log V) lookup
// with no allocation and no further budget (Theorem 4.2's reduction).
// Bounded-error: Bound reports the per-pair figure (three released
// estimates combined).
func (r *TreeSSSPResult) Oracle() DistanceOracle {
	r.oracleOnce.Do(func() {
		if r.g == nil {
			// A result rehydrated from JSON carries no topology; the
			// oracle needs the session it was released from.
			panic("dpgraph: TreeSSSPResult.Oracle needs a result obtained from a PrivateGraph session (no topology attached)")
		}
		tr, err := graph.NewTree(r.g, r.Root)
		if err != nil {
			// The release validated the topology; reaching this means the
			// result was built outside a session.
			panic("dpgraph: TreeSSSPResult.Oracle without session topology: " + err.Error())
		}
		lca := graph.NewLCA(tr)
		dist := r.Dist
		r.oracle = &lookupOracle{
			n: r.g.N(),
			query: func(x, y int) float64 {
				z := lca.Find(x, y)
				return dist[x] + dist[y] - 2*dist[z]
			},
			bound: func(gamma float64) float64 { return 4 * r.Bound(gamma/3) },
		}
	})
	return r.oracle
}

func (r *TreeSSSPResult) Summary() string {
	return fmt.Sprintf("tree single-source distances from %d over %d vertices (noise scale %.4g, %d levels)",
		r.Root, len(r.Dist), r.NoiseScale, r.Levels)
}

// TreeAPSDResult is the Theorem 4.2 release: all-pairs tree distances
// answered from one single-source release plus the public LCA structure.
type TreeAPSDResult struct {
	ReleaseInfo
	// SSSP is the underlying single-source release.
	SSSP *TreeSSSPResult `json:"sssp"`

	apsd *core.TreeAPSD

	oracleOnce sync.Once
	oracle     DistanceOracle
}

// Oracle returns a DistanceOracle over the precomputed LCA reduction:
// every pair is answered from the one Algorithm 1 release at zero
// further budget. Bounded-error with the per-pair bound of PerPairBound.
func (r *TreeAPSDResult) Oracle() DistanceOracle {
	r.oracleOnce.Do(func() {
		r.oracle = &lookupOracle{n: len(r.SSSP.Dist), query: r.apsd.Query, bound: r.PerPairBound}
	})
	return r.oracle
}

// Distance returns the released estimate of the x-y tree distance.
func (r *TreeAPSDResult) Distance(x, y int) float64 { return r.apsd.Query(x, y) }

// Matrix materializes the full all-pairs estimate matrix.
func (r *TreeAPSDResult) Matrix() [][]float64 { return r.apsd.Matrix() }

// PerPairBound returns the bound for one fixed pair at gamma.
func (r *TreeAPSDResult) PerPairBound(gamma float64) float64 {
	return r.apsd.PerPairErrorBound(gamma)
}

// Bound returns the bound holding for every pair simultaneously except
// with probability gamma.
func (r *TreeAPSDResult) Bound(gamma float64) float64 {
	return r.apsd.AllPairsErrorBound(gamma)
}

func (r *TreeAPSDResult) Summary() string {
	return fmt.Sprintf("tree all-pairs distances over %d vertices (noise scale %.4g)", len(r.SSSP.Dist), r.NoiseScale)
}

// HierarchyResult is the Appendix A hub-hierarchy release for the path
// graph; any pairwise distance is assembled from O(log V) released gaps.
type HierarchyResult struct {
	ReleaseInfo
	// Base is the hub spacing ratio; Levels the number of hub levels.
	Base   int `json:"base"`
	Levels int `json:"levels"`

	hubs *core.PathHubs

	oracleOnce sync.Once
	oracle     DistanceOracle
}

// Oracle returns a DistanceOracle over the hub hierarchy: any pair on
// the path is assembled from O(log V) released gaps with no allocation
// and zero further budget. Bounded-error with the per-query Bound.
func (r *HierarchyResult) Oracle() DistanceOracle {
	r.oracleOnce.Do(func() {
		r.oracle = &lookupOracle{n: r.hubs.V, query: r.hubs.Query, bound: r.Bound}
	})
	return r.oracle
}

// Distance returns the released estimate of the x-y distance on the
// path.
func (r *HierarchyResult) Distance(x, y int) float64 { return r.hubs.Query(x, y) }

// GapsUsed counts the released values a query sums.
func (r *HierarchyResult) GapsUsed(x, y int) int { return r.hubs.GapsUsed(x, y) }

// MaxGapsPerQuery returns the worst-case number of summed gaps.
func (r *HierarchyResult) MaxGapsPerQuery() int { return r.hubs.MaxGapsPerQuery() }

// ReleasedCount returns the total number of noisy values released.
func (r *HierarchyResult) ReleasedCount() int { return r.hubs.ReleasedCount() }

// Bound returns the per-query error bound holding except with
// probability gamma.
func (r *HierarchyResult) Bound(gamma float64) float64 { return r.hubs.ErrorBound(gamma) }

func (r *HierarchyResult) Summary() string {
	return fmt.Sprintf("path hub hierarchy over %d vertices (base %d, %d levels, noise scale %.4g)",
		r.hubs.V, r.Base, r.Levels, r.NoiseScale)
}

// SSSPResult is a released single-source distance vector on a general
// graph, calibrated by composition over the V-1 queries.
type SSSPResult struct {
	ReleaseInfo
	Source int `json:"source"`
	// Dist[v] is the released estimate; +Inf where unreachable.
	Dist []float64 `json:"dist"`
}

// Bound returns the bound holding simultaneously for all released
// distances except with probability gamma.
func (r *SSSPResult) Bound(gamma float64) float64 {
	k := len(r.Dist) - 1
	if k < 1 {
		k = 1
	}
	return dp.UnionTailBound(r.NoiseScale, k, gamma)
}

func (r *SSSPResult) Summary() string {
	return fmt.Sprintf("single-source distances from %d over %d vertices (noise scale %.4g)",
		r.Source, len(r.Dist), r.NoiseScale)
}

// MSTResult is an Appendix B released spanning tree.
type MSTResult struct {
	ReleaseInfo
	// Edges is the released spanning tree's edge IDs, sorted.
	Edges []int `json:"edges"`
	// ReleasedWeight is the tree's weight under the noisy weights (safe
	// to publish).
	ReleasedWeight float64 `json:"released_weight"`

	n, m int
}

// TrueWeight returns the released tree's weight under the private
// weights; data-owner side, for error measurement.
func (r *MSTResult) TrueWeight(w []float64) float64 { return graph.PathWeight(w, r.Edges) }

// Bound returns the Theorem B.3 excess-weight bound at gamma.
func (r *MSTResult) Bound(gamma float64) float64 {
	if r.m == 0 {
		return 0
	}
	return 2 * float64(r.n-1) * dp.UnionTailBound(r.NoiseScale, r.m, gamma)
}

func (r *MSTResult) Summary() string {
	return fmt.Sprintf("private spanning tree (%d edges, released weight %.4f)", len(r.Edges), r.ReleasedWeight)
}

// Detail lists the released tree's edge IDs.
func (r *MSTResult) Detail() string { return intList(r.Edges) }

// MatchingResult is an Appendix B released perfect matching.
type MatchingResult struct {
	ReleaseInfo
	// Edges is the released matching's edge IDs, sorted.
	Edges []int `json:"edges"`
	// ReleasedWeight is the matching's weight under the noisy weights.
	ReleasedWeight float64 `json:"released_weight"`

	n, m int
}

// TrueWeight returns the released matching's weight under the private
// weights; data-owner side, for error measurement.
func (r *MatchingResult) TrueWeight(w []float64) float64 { return graph.PathWeight(w, r.Edges) }

// Bound returns the Theorem B.6 excess-weight bound at gamma.
func (r *MatchingResult) Bound(gamma float64) float64 {
	if r.m == 0 {
		return 0
	}
	return float64(r.n) * dp.UnionTailBound(r.NoiseScale, r.m, gamma)
}

func (r *MatchingResult) Summary() string {
	return fmt.Sprintf("private perfect matching (%d edges, released weight %.4f)", len(r.Edges), r.ReleasedWeight)
}

// Detail lists the released matching's edge IDs.
func (r *MatchingResult) Detail() string { return intList(r.Edges) }

func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, " ")
}
