package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 2.0, 5.5, 4.25}, 2.275, 3.675, 5.1875},
		{[]float64{7, 1}, -0.5, 4, 8.5},
		{[]float64{1, 2, 3}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   int
		wantOK bool
	}{
		{19, 0, false},
		{20, 500, true},
		{99, 500, true},
		{100, 900, true},
		{1000, 990, true},
		{9999, 990, true},
		{10000, 999, true},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // unsorted on purpose
		}
		pm, v, ok := tailPercentile(xs)
		if pm != c.want || ok != c.wantOK {
			t.Errorf("n=%d: percentile %d ok=%v, want %d ok=%v", c.n, pm, ok, c.want, c.wantOK)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range xs {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%.1f = %v has %d samples beyond it", c.n, float64(pm)/10, v, beyond)
			}
		}
	}
}

func TestFailedFrac(t *testing.T) {
	var tl tally
	if got := tl.failedFrac(); got != 1 {
		t.Errorf("nothing attempted: failed_frac %v, want 1", got)
	}
	tl.add(true)
	tl.add(false)
	tl.addN(6, 1)
	if tl.Attempted != 8 || tl.Failed != 2 || tl.failedFrac() != 0.25 {
		t.Errorf("tally %+v, failed_frac %v; want 8 attempted, 2 failed, 0.25", tl, tl.failedFrac())
	}
}

func TestVerdict(t *testing.T) {
	lower := rule{lowerBetter: true, bound: 0.10, bounded: true}
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		a, b []float64
		r    rule
		want string
	}{
		{"same runs", base, base, lower, "no worse"},
		{"every pair faster", base, scale(base, 0.8), lower, "improved"},
		{"slower beyond the bound", base, scale(base, 1.2), lower, "regressed"},
		{"slower within the bound", base, scale(base, 1.05), lower, "no worse"},
		{"spread wider than the bound", base, []float64{8, 13, 9, 12, 10, 11, 8, 13, 9, 12}, lower, "unresolved"},
		{"higher is better", base, scale(base, 0.8), rule{bound: 0.10, bounded: true}, "regressed"},
		{"any failure is a regression", []float64{0, 0, 0}, []float64{0, 0.1, 0}, rule{lowerBetter: true, anyIncrease: true}, "regressed"},
		{"unbounded needs consistent losses", base, scale(base, 1.5), rule{lowerBetter: true}, "regressed"},
	}
	for _, c := range cases {
		if _, got := verdict(c.a, c.b, c.r); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
