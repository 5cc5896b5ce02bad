package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the q-quantile of xs by the nearest-rank rule and
// whether it is supported, that is whether at least minBeyond samples lie
// beyond its rank. xs is sorted in place.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return xs[rank-1], false
	}
	return xs[rank-1], true
}

// median is the middle sample (nearest rank), with no support rule: it
// summarises repeated set-ups, of which there are only a few.
func median(xs []float64) float64 {
	v, _ := percentile(append([]float64(nil), xs...), 0.5)
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
