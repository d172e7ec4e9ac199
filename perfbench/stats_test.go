package main

import (
	"math"
	"testing"
)

func TestMedianAndQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{3}, 0.5, 3},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.9, 4.6},
		{[]float64{5, 1}, 1, 5},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestGeomean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 4, 16}, 4},
		{[]float64{2, 8}, 4},
		{[]float64{2, 0, 8}, 0},
		{[]float64{2, -1}, 0},
	}
	for _, c := range cases {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("geomean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// TestPercentileRule pins the reporting rule: the median, plus the
// highest percentile with at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n          int
		wantP      float64
		wantBeyond int
	}{
		{0, 0, 0},
		{9, 0, 0},
		{19, 0, 0},
		{20, 50, 10},
		{99, 50, 49},
		{100, 90, 10},
		{999, 90, 99},
		{1000, 99, 10},
		{9999, 99, 99},
		{10000, 99.9, 10},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // descending: summarize must sort
		}
		s := summarize(xs)
		if s.N != c.n || s.TailP != c.wantP || s.Beyond != c.wantBeyond {
			t.Errorf("n=%d: got n=%d p%g with %d beyond, want p%g with %d beyond", c.n, s.N, s.TailP, s.Beyond, c.wantP, c.wantBeyond)
		}
		if c.n > 0 && s.P50 != median(xs) {
			t.Errorf("n=%d: p50 %g, want the median %g", c.n, s.P50, median(xs))
		}
		if c.wantP > 0 {
			if want := quantile(xs, c.wantP/100); s.Tail != want {
				t.Errorf("n=%d: tail %g, want %g", c.n, s.Tail, want)
			}
		}
	}
}
