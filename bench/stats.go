package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the two middle values for an
// even count). xs is not modified. It returns 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice: the smallest sample with at least p% of the samples at or
// below it. No interpolation and no buckets — the value is one of the
// samples.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples,
// clamped to [1, n]. The epsilon keeps 99.9 % of 1000 at 999 although the
// product is not exact in floating point.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailLadder are the percentiles a tail may be reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the value is an order statistic of a handful of
// outliers and does not repeat.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, or 0 when not even the median
// qualifies (n < 20).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}
