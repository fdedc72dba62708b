package main

import (
	"math"
	"slices"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// nsQuantiles returns the p50 and p99 of a latency sample in µs,
// sorting scratch (len(ns)) in place of ns.
func nsQuantiles(ns []int64, scratch []float64) (p50, p99 float64) {
	scratch = scratch[:len(ns)]
	for i, v := range ns {
		scratch[i] = float64(v) / 1e3
	}
	slices.Sort(scratch)
	return sortedQuantile(scratch, 0.50), sortedQuantile(scratch, 0.99)
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
