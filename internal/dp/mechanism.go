package dp

import (
	"fmt"
)

// Query is a vector-valued function of a private weight vector together
// with its global l1 sensitivity (Definition 3.2): the largest l1 change
// of the output over neighboring inputs (l1 distance at most one).
type Query struct {
	// Name describes the query, for audit trails.
	Name string
	// Sensitivity is the global l1 sensitivity Delta f.
	Sensitivity float64
	// Eval computes the exact (pre-noise) answer vector.
	Eval func(w []float64) []float64
}

// LaplaceMechanism answers q with epsilon-differential privacy by adding
// independent Lap(Delta f / epsilon) noise to each coordinate (Lemma 3.2,
// [DMNS06]). Noise is requested from src as one block.
func LaplaceMechanism(q Query, eps float64, w []float64, src NoiseSource) []float64 {
	if !(eps > 0) {
		panic(fmt.Sprintf("dp: LaplaceMechanism requires epsilon > 0, got %g", eps))
	}
	if !(q.Sensitivity > 0) {
		panic(fmt.Sprintf("dp: query %q has non-positive sensitivity %g", q.Name, q.Sensitivity))
	}
	ans := q.Eval(w)
	out := make([]float64, len(ans))
	src.FillLaplace(q.Sensitivity/eps, out)
	for i, a := range ans {
		out[i] += a
	}
	return out
}

// AddLaplace adds independent Lap(scale) noise to every entry of v,
// returning a new slice. It is the raw noise step used by mechanisms that
// manage their own sensitivity accounting; the noise is requested from
// src as one block, so large vectors hit the vectorized fill path.
func AddLaplace(v []float64, scale float64, src NoiseSource) []float64 {
	out := make([]float64, len(v))
	src.FillLaplace(scale, out)
	for i, a := range v {
		out[i] += a
	}
	return out
}

// MeasuredSensitivity evaluates q on a pair of weight vectors and returns
// the l1 distance of the answers. For neighboring inputs this must never
// exceed q.Sensitivity; tests use it to audit sensitivity claims.
func MeasuredSensitivity(q Query, w, w2 []float64) float64 {
	a, b := q.Eval(w), q.Eval(w2)
	if len(a) != len(b) {
		panic(fmt.Sprintf("dp: query %q returned different lengths %d and %d", q.Name, len(a), len(b)))
	}
	d := 0.0
	for i := range a {
		diff := a[i] - b[i]
		if diff < 0 {
			diff = -diff
		}
		d += diff
	}
	return d
}
