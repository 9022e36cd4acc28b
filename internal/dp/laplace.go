// Package dp implements the differential privacy primitives used by the
// private edge-weight mechanisms: the Laplace distribution and mechanism
// (Definition 3.1, Lemma 3.2 [DMNS06]), concentration of Laplace sums
// (Lemma 3.1 [CSS10]), and composition calculators (Lemmas 3.3 and 3.4
// [DKM+06, DRV10, DR13]).
//
// All mechanism noise is sampled through the NoiseSource interface — the
// package's single sampling entry point. A NoiseSource hands out Laplace
// draws one at a time (SampleLaplace) or in vectorized blocks
// (FillLaplace), and comes in three flavors: a crypto-grade ChaCha8
// stream seeded from OS entropy (NewCryptoNoise), a
// splittable deterministic stream for reproducible experiments
// (NewSeededNoise), and an adapter sharing a caller-owned *rand.Rand
// (WrapRand). The Laplace type below remains the distribution object
// (density, quantiles, tail bounds); its scalar Sample method survives
// for distribution-level tests, but mechanisms must draw via NoiseSource.
package dp

import (
	"fmt"
	"math"
	"math/rand" //dpvet:allow noiserand -- Laplace.Sample's public API accepts a caller-supplied *rand.Rand; this file never constructs or seeds one
)

// Laplace is the Laplace distribution with mean 0 and scale b:
// density p(x) = exp(-|x|/b) / (2b). For Y ~ Lap(b),
// Pr[|Y| > t*b] = exp(-t).
type Laplace struct {
	Scale float64
}

// NewLaplace returns the Laplace distribution with the given scale. It
// panics if scale is not positive.
func NewLaplace(scale float64) Laplace {
	if !(scale > 0) || math.IsInf(scale, 1) {
		panic(fmt.Sprintf("dp: Laplace scale must be positive and finite, got %g", scale))
	}
	return Laplace{Scale: scale}
}

// Sample draws one value by inverse-CDF sampling: with U uniform on
// (-1/2, 1/2), the value -b*sgn(U)*ln(1-2|U|) is Lap(b). Mechanisms
// draw through a NoiseSource instead; this scalar entry point exists for
// distribution-level tests and for callers that already own a bare
// *rand.Rand.
func (l Laplace) Sample(rng *rand.Rand) float64 {
	return laplaceFromRand(rng, l.Scale)
}

// SampleN draws n independent values.
func (l Laplace) SampleN(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = l.Sample(rng)
	}
	return out
}

// PDF evaluates the density at x.
func (l Laplace) PDF(x float64) float64 {
	return math.Exp(-math.Abs(x)/l.Scale) / (2 * l.Scale)
}

// CDF evaluates the cumulative distribution function at x.
func (l Laplace) CDF(x float64) float64 {
	if x < 0 {
		return 0.5 * math.Exp(x/l.Scale)
	}
	return 1 - 0.5*math.Exp(-x/l.Scale)
}

// Quantile returns the p-th quantile, inverse to CDF. p must be in (0, 1).
func (l Laplace) Quantile(p float64) float64 {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("dp: Laplace quantile requires p in (0,1), got %g", p))
	}
	if p < 0.5 {
		return l.Scale * math.Log(2*p)
	}
	return -l.Scale * math.Log(2*(1-p))
}

// TailBound returns t such that Pr[|Y| > t] <= gamma for Y ~ Lap(b):
// t = b * ln(1/gamma).
func (l Laplace) TailBound(gamma float64) float64 {
	if !(gamma > 0 && gamma <= 1) {
		panic(fmt.Sprintf("dp: TailBound requires gamma in (0,1], got %g", gamma))
	}
	return l.Scale * math.Log(1/gamma)
}

// Variance returns the variance, 2b^2.
func (l Laplace) Variance() float64 { return 2 * l.Scale * l.Scale }

// SumTailBound bounds the magnitude of a sum of t independent Lap(b)
// variables: with probability at least 1-gamma the sum is below
// 4b*sqrt(t*ln(2/gamma)) (Lemma 3.1, [CSS10]; the lemma as stated assumes
// the subgaussian regime, which holds for the gamma used throughout).
func SumTailBound(b float64, t int, gamma float64) float64 {
	if t < 0 {
		panic("dp: SumTailBound requires t >= 0")
	}
	if !(gamma > 0 && gamma < 1) {
		panic(fmt.Sprintf("dp: SumTailBound requires gamma in (0,1), got %g", gamma))
	}
	return 4 * b * math.Sqrt(float64(t)*math.Log(2/gamma))
}

// UnionTailBound returns t such that m independent Lap(b) draws all have
// magnitude at most t except with probability gamma: t = b*ln(m/gamma).
func UnionTailBound(b float64, m int, gamma float64) float64 {
	if m <= 0 {
		panic("dp: UnionTailBound requires m >= 1")
	}
	return NewLaplace(b).TailBound(gamma / float64(m))
}
