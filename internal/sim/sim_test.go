package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now() = %d, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(5 * Millisecond)
	if got := c.Now(); got != Time(5*Millisecond) {
		t.Fatalf("Now() = %d, want %d", got, 5*Millisecond)
	}
	c.Advance(Second)
	if got := c.Now(); got != Time(Second+5*Millisecond) {
		t.Fatalf("Now() = %d, want %d", got, Second+5*Millisecond)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(Time(42))
	if c.Now() != 42 {
		t.Fatalf("Now() = %d, want 42", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo backwards did not panic")
		}
	}()
	c.AdvanceTo(Time(1))
}

// TestClockRestore checks the snapshot path's clock setter, the one way
// to move a clock backwards.
func TestClockRestore(t *testing.T) {
	c := NewClock()
	c.Advance(Second)
	c.Restore(Time(Millisecond))
	if c.Now() != Time(Millisecond) {
		t.Fatalf("after Restore Now() = %d, want %d", c.Now(), Millisecond)
	}
}

func TestTimeSubPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sub with later argument did not panic")
		}
	}()
	_ = Time(1).Sub(Time(2))
}

func TestIntervalRoundTrip(t *testing.T) {
	// 1M ops/s -> 1µs interval.
	if got := Interval(1e6); got != Microsecond {
		t.Fatalf("Interval(1e6) = %d, want %d", got, Microsecond)
	}
	// 3M/s interval times 3M events covers about a second.
	iv := Interval(3e6)
	total := Duration(3_000_000) * iv
	if math.Abs(total.Seconds()-1.0) > 0.01 {
		t.Fatalf("3M intervals at 3M/s = %v, want ~1s", total)
	}
}

func TestIntervalPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Interval(0) did not panic")
		}
	}()
	Interval(0)
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{Second + Second/2, "1.500s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", uint64(c.d), got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
	c := NewRNG(8)
	same := 0
	a = NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed RNGs matched %d/1000 draws", same)
	}
}

func TestRNGUint64nBounds(t *testing.T) {
	r := NewRNG(1)
	f := func(n uint64) bool {
		if n == 0 {
			return true
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnDistribution(t *testing.T) {
	r := NewRNG(2)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		frac := float64(c) / draws
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("bucket %d has fraction %.4f, want ~0.10", i, frac)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGLogNormalishPositiveMean(t *testing.T) {
	r := NewRNG(6)
	sum := 0.0
	const draws = 20000
	for i := 0; i < draws; i++ {
		v := r.LogNormalish(0.3)
		if v <= 0 {
			t.Fatalf("LogNormalish returned non-positive %v", v)
		}
		sum += v
	}
	mean := sum / draws
	if mean < 0.9 || mean > 1.3 {
		t.Fatalf("LogNormalish(0.3) mean = %v, want ~1.0-1.1", mean)
	}
}

func TestRNGShuffle(t *testing.T) {
	r := NewRNG(9)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), xs...)
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	// Still a permutation.
	seen := map[int]bool{}
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != len(orig) {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
