package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs. +Inf (a failed latency sample)
// sorts last, so every percentile counts a failure as missing the limit.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, computed exactly as Python's statistics.quantiles(xs, n=4) does
// with its default "exclusive" method, so the spreads this program reports
// match the ones a Python reader computes from the same values. One sample
// is its own quartiles; no samples give NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		lo, hi := s[j-1], s[j]
		if delta == 0 {
			return lo
		}
		if delta == 4 {
			return hi
		}
		return (lo*(4-delta) + hi*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run noise measure a bound is compared against.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p int) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile of n samples.
func rankOf(n, p int) int {
	return max(1, (p*n+99)/100)
}

// tailPercentile returns the highest whole percentile of n samples that
// still has at least ten samples beyond it, or 0 when even the median
// has fewer (n < 20). A tail percentile with fewer samples beyond it
// would be decided by a handful of outliers.
func tailPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		if n-rankOf(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// p90 returns the 90th percentile of xs when at least ten samples lie
// beyond it (n >= 100); below that, the highest percentile that still has
// ten beyond it, so a run a few samples short reports a nearby tail
// rather than jumping to the median; and the median for n < 20. It also
// returns the percentile reported, so every printed line can say which.
func p90(xs []float64) (float64, int) {
	p := min(90, tailPercentile(len(xs)))
	if p == 0 {
		return median(xs), 50
	}
	return percentile(xs, p), p
}
