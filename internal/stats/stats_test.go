package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, x := range []float64{4, 1, 3, 2, 5} {
		s.Add(x)
	}
	if s.N() != 5 || s.Max() != 5 {
		t.Fatalf("N=%d Max=%v", s.N(), s.Max())
	}
	if s.Median() != 3 {
		t.Fatalf("Median=%v", s.Median())
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("P0=%v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("P100=%v", got)
	}
}

func TestPercentileMonotone(t *testing.T) {
	var s Sample
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		s = Sample{}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		last := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := s.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentilePanics(t *testing.T) {
	var s Sample
	for _, fn := range []func(){
		func() { s.Percentile(50) },
		func() { s.Add(1); s.Percentile(-1) },
		func() { s.Percentile(101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
