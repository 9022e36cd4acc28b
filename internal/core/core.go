// Package core implements the differentially private mechanisms of
// Sealfon, "Shortest Paths and Distances with Differential Privacy"
// (PODS 2016) in the private edge-weight model: the graph topology is
// public and the weight vector w (indexed by edge ID) is private, with
// weight vectors at l1 distance at most one considered neighboring.
//
// Mechanisms provided:
//
//   - PrivateDistance: single-pair distance via the Laplace mechanism
//     (Section 4 warm-up; sensitivity 1).
//   - APSDComposition: all-pairs distances by noising each of the V^2
//     queries, calibrated by basic or advanced composition (Section 4
//     baselines).
//   - ReleaseGraph: an eps-DP synthetic weight vector; every
//     post-processing of it is private (Section 4 / Algorithm 3 basis).
//   - TreeSingleSource, TreeAllPairs: Algorithm 1 and Theorem 4.2,
//     distances on trees with polylog(V) error.
//   - PathHierarchy: the Appendix A hub hierarchy for the path graph.
//   - CoveringAPSD, CoveringAPSDPure, BoundedWeightAPSD: Algorithm 2 and
//     Theorems 4.5, 4.6, 4.3 for bounded-weight graphs.
//   - PrivateShortestPaths: Algorithm 3 / Theorem 5.5, releasing short
//     paths between all pairs with error proportional to hop count.
//   - PrivateMST, PrivateMatching: Appendix B mechanisms.
//
// Every mechanism accepts a sensitivity Scale (default 1): if one
// individual can influence the weights by at most s in l1 norm rather
// than 1, pass Scale s and all error bounds shrink by the same factor
// (the paper's Section 1.2 scaling remark).
package core

import (
	"fmt"

	"repro/internal/dp"
)

// Options carries the parameters shared by all mechanisms.
type Options struct {
	// Epsilon is the privacy parameter; must be positive.
	Epsilon float64
	// Delta is the approximate-DP parameter; zero means pure DP. Only
	// mechanisms documented as (eps, delta)-DP consume it.
	Delta float64
	// Gamma is the failure probability used to size high-probability
	// bias/bound terms (e.g. Algorithm 3's shift). Defaults to 0.05.
	Gamma float64
	// Scale is the l1 influence of a single individual on the weight
	// vector (the paper's scaling remark). Defaults to 1.
	Scale float64
	// Noise is the noise source every mechanism draws from. Defaults to
	// crypto-grade noise (dp.NewCryptoNoise); pass a seeded source
	// (dp.NewSeededNoise, dp.WrapRand) only for reproducible experiments
	// and tests. Mechanisms request noise in blocks (dp.NoiseSource's
	// FillLaplace), so large releases hit the vectorized sampling path.
	Noise dp.NoiseSource
	// Accountant, when non-nil, is charged (Epsilon, Delta) before each
	// mechanism releases anything; if the budget would be exceeded the
	// mechanism returns the accountant's error and releases nothing.
	Accountant *dp.Accountant
}

// charge debits the given privacy cost from the accountant, if any.
// Mechanisms call it after validation and before sampling any noise,
// passing the guarantee they actually provide: pure mechanisms charge
// pureParams() (delta zero) even when the caller set a nonzero Delta.
func (o Options) charge(label string, p dp.PrivacyParams) error {
	if o.Accountant == nil {
		return nil
	}
	return o.Accountant.Spend(label, p)
}

// withDefaults normalizes an Options value and validates it.
func (o Options) withDefaults() (Options, error) {
	if !(o.Epsilon > 0) {
		return o, fmt.Errorf("core: epsilon must be positive, got %g", o.Epsilon)
	}
	if o.Delta < 0 || o.Delta >= 1 {
		return o, fmt.Errorf("core: delta must be in [0, 1), got %g", o.Delta)
	}
	if o.Gamma == 0 {
		o.Gamma = 0.05
	}
	if !(o.Gamma > 0 && o.Gamma < 1) {
		return o, fmt.Errorf("core: gamma must be in (0, 1), got %g", o.Gamma)
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if !(o.Scale > 0) {
		return o, fmt.Errorf("core: scale must be positive, got %g", o.Scale)
	}
	if o.Noise == nil {
		o.Noise = dp.NewCryptoNoise()
	}
	return o, nil
}

// Validate checks the parameter values without running a mechanism;
// zero values that withDefaults would fill in are accepted.
func (o Options) Validate() error {
	if o.Noise == nil {
		// Avoid allocating a crypto stream just to validate numbers.
		o.Noise = dp.NewSeededNoise(0)
	}
	_, err := o.withDefaults()
	return err
}

// Params returns the privacy guarantee the options request.
func (o Options) Params() dp.PrivacyParams {
	return dp.PrivacyParams{Epsilon: o.Epsilon, Delta: o.Delta}
}

// pureParams returns the guarantee of a pure eps-DP mechanism run under
// these options: Delta is not consumed, so it is not charged.
func (o Options) pureParams() dp.PrivacyParams {
	return dp.PrivacyParams{Epsilon: o.Epsilon}
}
