package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between the two nearest ranks. It works on the raw
// samples, so it resolves differences far below the 1-2-5 buckets of
// obs.Histogram.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// beyond returns how many of n samples lie above the q-quantile: the
// support of a tail percentile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	return quantile(sortedCopy(xs), 0.5)
}

// quartiles returns the three quartile cut points of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so the spreads printed by -runs are the ones the
// benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var r [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		r[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return r[0], r[1], r[2]
}

// spread summarizes repeated values of one metric: the interquartile
// range and the full range, each as a share of the median.
type spread struct {
	Median, Q1, Q3 float64
	IQRShare       float64
	RangeShare     float64
}

func spreadOf(xs []float64) spread {
	q1, q2, q3 := quartiles(xs)
	s := sortedCopy(xs)
	sp := spread{Median: q2, Q1: q1, Q3: q3}
	if q2 != 0 {
		sp.IQRShare = (q3 - q1) / math.Abs(q2)
		sp.RangeShare = (s[len(s)-1] - s[0]) / math.Abs(q2)
	}
	return sp
}
