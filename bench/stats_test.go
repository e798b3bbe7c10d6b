package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{5, 1, 4, 2, 3, 9, 8}, 2, 4, 8},
		{[]float64{2.5, 2.5, 2.5}, 2.5, 2.5, 2.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); m != tc.q2 {
			t.Errorf("median(%v) = %g, want %g", tc.xs, m, tc.q2)
		}
	}
	if q1, q2, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(q2) || !math.IsNaN(q3) {
		t.Errorf("quartiles(nil) = %g, %g, %g; want NaN", q1, q2, q3)
	}
}

func TestSpread(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{100, 100, 100}, 0},
		{[]float64{1, 2, 3, 4, 5}, 1},                                      // (4.5-1.5)/3
		{[]float64{90, 95, 100, 105, 110, 100, 100, 100, 100, 100}, 0.025}, // (101.25-98.75)/100
	} {
		if got := spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %g, want about %g", tc.xs, got, tc.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {10, 0}, {19, 0}, {20, 50}, {25, 60}, {99, 89}, {100, 90}, {101, 90}, {120, 91}, {1000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && tc.n-rankOf(tc.n, p) < 10 {
			t.Errorf("n=%d: p%d has %d samples beyond it", tc.n, p, tc.n-rankOf(tc.n, p))
		}
	}
}

func TestP90FallsBackToTheHighestResolvedPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		n, p int
		v    float64
	}{
		{200, 90, 180},
		{100, 90, 90},
		{99, 89, 89},  // rank 89: ten samples beyond it
		{25, 60, 15},  // rank 15
		{20, 50, 10},  // rank 10
		{19, 50, 10},  // too few for any tail: the median
		{12, 50, 6.5}, // the median of an even count
	} {
		if v, p := p90(xs[:tc.n]); p != tc.p || v != tc.v {
			t.Errorf("p90 of 1..%d = %g (p%d), want %g (p%d)", tc.n, v, p, tc.v, tc.p)
		}
	}
}

func TestFailedSamplesCountAsInfinite(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 10; i++ {
		xs[i] = math.Inf(1)
	}
	if v, _ := p90(xs); v != 1 {
		t.Errorf("p90 with 10 of 100 failed = %g, want 1", v)
	}
	xs[10] = math.Inf(1)
	if v, _ := p90(xs); !math.IsInf(v, 1) {
		t.Errorf("p90 with 11 of 100 failed = %g, want +Inf", v)
	}
	if m := median([]float64{1, math.Inf(1), math.Inf(1)}); !math.IsInf(m, 1) {
		t.Errorf("median with most samples failed = %g, want +Inf", m)
	}
}
