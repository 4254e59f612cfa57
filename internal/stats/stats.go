package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Merge appends every observation of o into s, in o's insertion order.
// Merging per-shard samples shard-by-shard therefore yields the same
// sample a serial run would have accumulated — the property the parallel
// trial engine relies on.
func (s *Sample) Merge(o *Sample) {
	if o == nil || len(o.xs) == 0 {
		return
	}
	s.xs = append(s.xs, o.xs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Max returns the largest observation (-Inf when empty).
func (s *Sample) Max() float64 {
	m := math.Inf(-1)
	for _, x := range s.xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ensureSorted sorts the backing slice once.
func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation. Panics on an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: percentile of empty sample")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	s.ensureSorted()
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[len(s.xs)-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }
