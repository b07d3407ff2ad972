package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// with fewer, the "p99" of a short run is just its maximum.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// samples: the value at rank ceil(q·n), 1-based.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(q * float64(n)))
	r = min(max(r, 1), n)
	return sorted[r-1]
}

// tailPercentile applies the reporting rule for tail latencies: the
// q-quantile if at least minBeyond samples lie beyond its rank, otherwise the
// highest quantile that still has minBeyond samples beyond it. It returns the
// value and the quantile actually reported; with minBeyond or fewer samples
// no quantile qualifies and the median is reported instead.
func tailPercentile(sorted []float64, q float64) (float64, float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), q
	}
	r := int(math.Ceil(q * float64(n)))
	if n-r >= minBeyond {
		return sorted[max(r, 1)-1], q
	}
	r = n - minBeyond
	if r < 1 {
		return percentile(sorted, 0.5), 0.5
	}
	return sorted[r-1], float64(r) / float64(n)
}

// median returns the middle of xs (mean of the two middle values for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
