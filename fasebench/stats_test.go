package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

func TestTailPercentileTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP int
		wantV float64
	}{
		{1000, 99, 990}, // rank 990, 10 beyond
		{999, 95, 950},  // p99: rank 990, only 9 beyond
		{200, 95, 190},  // p95 at 200 jobs: rank 190, 10 beyond
		{199, 90, 180},  // p95: rank 190, 9 beyond
		{100, 90, 90},   // rank 90, 10 beyond
		{40, 75, 30},    // rank 30, 10 beyond
		{20, 50, 10},    // rank 10, 10 beyond
		{19, 50, 10},    // no tail qualifies: the median
		{6, 50, 3.5},
	} {
		p, v := tailPercentile(seq(tc.n))
		if p != tc.wantP || v != tc.wantV {
			t.Errorf("n=%d: got p%d=%g, want p%d=%g", tc.n, p, v, tc.wantP, tc.wantV)
		}
	}
	if p, v := tailPercentile(nil); p != 50 || !math.IsNaN(v) {
		t.Errorf("empty: got p%d=%g", p, v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %g", got)
	}
	if got := nearestRank([]float64{5, 1, 4, 2, 3}, 95); got != 5 {
		t.Errorf("nearest-rank p95 %g", got)
	}
}
