package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It is NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowed splits samples, taken in time order, into k equal windows and
// returns the median over windows of the q-quantile within each window.
// A single stall then moves one window instead of the whole figure,
// while a slowdown that recurs in every window still shows.
func windowed(samples []float64, k int, q float64) float64 {
	if len(samples) < k || k <= 1 {
		return quantile(append([]float64(nil), samples...), q)
	}
	per := len(samples) / k
	vals := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*per, (i+1)*per
		if i == k-1 {
			hi = len(samples)
		}
		vals = append(vals, quantile(append([]float64(nil), samples[lo:hi]...), q))
	}
	return median(vals)
}
