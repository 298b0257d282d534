package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vals: the smallest value with at least p% of the samples at or below it.
// With fewer than 100 samples the 99th percentile is therefore the
// maximum. It returns 0 for an empty slice and does not modify vals.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle value of vals (the mean of the two middle
// values for an even count), 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals by the exclusive
// method, as Python's statistics.quantiles(vals, n=4) computes them.
// It needs at least two values.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		// Position k*(n+1)/4, 1-based, clamped to 1..n-1 and linearly
		// interpolated (extrapolated when clamped), in integer math.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of vals as a share of their median;
// with fewer than four values it falls back to (max-min)/median.
func spread(vals []float64) float64 {
	med := median(vals)
	if len(vals) < 2 || med == 0 {
		return 0
	}
	if len(vals) < 4 {
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(med)
}
