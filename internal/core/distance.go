package core

import (
	"fmt"
	"math"

	"repro/internal/dp"
	"repro/internal/graph"
)

// PrivateDistance releases the distance between one pair of vertices with
// eps-differential privacy (Section 4 warm-up). The distance function is
// sensitivity-Scale: changing the weights by at most Scale in l1 changes
// the weight of every path, hence the minimum, by at most Scale. Noise is
// Lap(Scale/eps).
func PrivateDistance(g *graph.Graph, w []float64, s, t int, opts Options) (float64, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return 0, err
	}
	d, err := graph.Distance(g, w, s, t)
	if err != nil {
		return 0, err
	}
	if math.IsInf(d, 1) {
		return 0, fmt.Errorf("core: vertex %d unreachable from %d (topology is public, so reporting this leaks nothing)", t, s)
	}
	if err := o.charge("PrivateDistance", o.pureParams()); err != nil {
		return 0, err
	}
	return d + o.Noise.SampleLaplace(o.Scale/o.Epsilon), nil
}

// APSD holds privately released all-pairs distance estimates.
type APSD struct {
	// Dist[s][t] is the released estimate of the s-t distance.
	Dist [][]float64
	// NoiseScale is the Laplace scale added to each entry (or, for
	// covering-based mechanisms, to each underlying released value).
	NoiseScale float64
	// ErrorBound is the mechanism's high-probability per-distance
	// additive error bound at the configured gamma.
	ErrorBound float64
	// Params is the privacy guarantee of the release.
	Params dp.PrivacyParams
}

// Query returns the released s-t distance estimate.
func (a *APSD) Query(s, t int) float64 { return a.Dist[s][t] }

// APSDComposition releases all-pairs distances by adding independent
// Laplace noise to each of the V^2 sensitivity-Scale distance queries
// (Section 4 baselines).
//
// With Delta == 0 it adds Lap(V^2 * Scale / eps) noise (basic composition,
// Lemma 3.3). With Delta > 0 it calibrates the per-query epsilon by
// advanced composition (Lemma 3.4), yielding noise scale
// O(V * sqrt(ln 1/delta) * Scale / eps).
func APSDComposition(g *graph.Graph, w []float64, opts Options) (*APSD, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	n := g.N()
	// Number of adaptive sensitivity-1 queries: one per ordered pair with
	// s < t (undirected) or s != t (directed); diagonal is identically 0.
	k := n * (n - 1) / 2
	if g.Directed() {
		k = n * (n - 1)
	}
	if k == 0 {
		k = 1
	}
	noiseScale := o.Scale * dp.NoiseScaleForKQueries(o.Params(), k)
	// Exact answers (and any failure) come before the charge, so a
	// failed release never burns budget.
	exact, err := graph.AllPairsDistances(g, w)
	if err != nil {
		return nil, err
	}
	if err := o.charge("APSDComposition", o.Params()); err != nil {
		return nil, err
	}
	released := make([][]float64, n)
	for s := 0; s < n; s++ {
		released[s] = make([]float64, n)
	}
	// One block of noise for every finite released entry, requested up
	// front so the fill can amortize; consumption order matches the
	// historical per-entry sampling loop. The counting pass shares the
	// consumption loop's skip predicate so the two cannot drift.
	needsNoise := func(s, t int) bool {
		return s != t && (g.Directed() || s < t) && !math.IsInf(exact[s][t], 1)
	}
	noisy := 0
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if needsNoise(s, t) {
				noisy++
			}
		}
	}
	noise := make([]float64, noisy)
	o.Noise.FillLaplace(noiseScale, noise)
	next := 0
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			switch {
			case needsNoise(s, t):
				released[s][t] = exact[s][t] + noise[next]
				next++
			case s == t:
				// Diagonal stays zero.
			case !g.Directed() && s > t:
				released[s][t] = released[t][s]
			default:
				released[s][t] = math.Inf(1)
			}
		}
	}
	return &APSD{
		Dist:       released,
		NoiseScale: noiseScale,
		ErrorBound: dp.UnionTailBound(noiseScale, k, o.Gamma),
		Params:     o.Params(),
	}, nil
}

// MaxAbsError returns the largest |released - exact| over all pairs with
// finite exact distance. A testing/experiment helper, not a mechanism.
func (a *APSD) MaxAbsError(exact [][]float64) float64 {
	worst := 0.0
	for s := range exact {
		for t := range exact[s] {
			if s == t || math.IsInf(exact[s][t], 1) {
				continue
			}
			if e := math.Abs(a.Dist[s][t] - exact[s][t]); e > worst {
				worst = e
			}
		}
	}
	return worst
}

// MeanAbsError returns the average |released - exact| over all ordered
// pairs with finite exact distance.
func (a *APSD) MeanAbsError(exact [][]float64) float64 {
	sum, count := 0.0, 0
	for s := range exact {
		for t := range exact[s] {
			if s == t || math.IsInf(exact[s][t], 1) {
				continue
			}
			sum += math.Abs(a.Dist[s][t] - exact[s][t])
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
