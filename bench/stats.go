package main

import "sort"

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three quartile cut points by the method Python's
// statistics.quantiles(xs, n=4) uses by default ("exclusive"), so a spread
// computed here matches one computed from the same values in Python. With
// fewer than two values every cut point is that value (0 for none).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// relIQR is the distance between the first and third quartile as a share
// of the median (0 when the median is 0).
func relIQR(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	if med := median(xs); med != 0 {
		return (q3 - q1) / abs(med)
	}
	return 0
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// percentile returns the nearest-rank p-th percentile (p in per mille, so
// 999 is p99.9) of sorted values.
func percentile(sorted []float64, perMille int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := (perMille*n + 999) / 1000 // ceil(p*n)
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// tailPercentile applies the reporting rule for timings: of p50, p90, p99
// and p99.9 it picks the highest that still has at least ten samples
// beyond it, and returns that percentile (per mille) and its value. ok is
// false when even p50 lacks ten samples beyond it (fewer than 20 values).
func tailPercentile(xs []float64) (perMille int, v float64, ok bool) {
	s := sortedCopy(xs)
	for _, pm := range []int{999, 990, 900, 500} {
		if len(s)*(1000-pm)/1000 >= 10 {
			return pm, percentile(s, pm), true
		}
	}
	return 0, 0, false
}

// tally counts operations attempted and failed; failed_frac is their ratio.
type tally struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// add records one operation.
func (t *tally) add(ok bool) {
	t.Attempted++
	if !ok {
		t.Failed++
	}
}

// addN records n operations of which failed failed.
func (t *tally) addN(n, failed int64) {
	t.Attempted += n
	t.Failed += failed
}

// failedFrac is failed over attempted; a run that attempted nothing
// counts as entirely failed.
func (t tally) failedFrac() float64 {
	if t.Attempted == 0 {
		return 1
	}
	return float64(t.Failed) / float64(t.Attempted)
}
