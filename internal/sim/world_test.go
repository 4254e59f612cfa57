package sim

import (
	"sync"
	"testing"
)

func TestSplitSeedDeterministicAndDistinct(t *testing.T) {
	if SplitSeed(1, 0) != SplitSeed(1, 0) {
		t.Fatal("SplitSeed is not a pure function")
	}
	// Distinct shard indices (and distinct roots) must give distinct,
	// well-spread child seeds; a collision among small indices would
	// correlate shards.
	seen := map[uint64]bool{}
	for _, root := range []uint64{0, 1, 42, ^uint64(0)} {
		for k := uint64(0); k < 1000; k++ {
			s := SplitSeed(root, k)
			if seen[s] {
				t.Fatalf("SplitSeed collision at root=%d k=%d", root, k)
			}
			seen[s] = true
		}
	}
}

func TestWorldStreamsDecorrelatedAndRestartable(t *testing.T) {
	w := NewWorld(3)
	r1 := w.Stream(1)
	r2 := w.Stream(2)
	same := 0
	for i := 0; i < 64; i++ {
		if r1.Uint64() == r2.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("streams with distinct tags correlate: %d/64 equal draws", same)
	}
	// Re-requesting a tag restarts the identical stream.
	x := w.Stream(5).Uint64()
	if w.Stream(5).Uint64() != x {
		t.Fatal("repeated Stream(tag) did not restart the stream")
	}
}

func TestWorldAdvance(t *testing.T) {
	w := NewWorld(0)
	if w.Now() != 0 {
		t.Fatal("fresh world not at time zero")
	}
	w.Clock.Advance(5 * Microsecond)
	if w.Now() != Time(5*Microsecond) {
		t.Fatal("Now does not follow the world clock")
	}
}

// TestClockOwnerGuard verifies the race-build footgun check: a clock
// touched from a second goroutine panics with a clear diagnosis, and
// Handoff permits a deliberate transfer. Only meaningful under -race
// (the guard compiles to a no-op otherwise).
func TestClockOwnerGuard(t *testing.T) {
	if !RaceEnabled {
		t.Skip("owner guard armed only under -race")
	}
	clk := NewClock()
	clk.Advance(1) // this goroutine becomes the owner

	cross := func() (panicked bool) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panicked = recover() != nil }()
			// Within the warm-up window every touch is checked, so a
			// handful of touches is guaranteed to trip the guard.
			for i := 0; i < 16; i++ {
				clk.Advance(1)
			}
		}()
		wg.Wait()
		return panicked
	}
	if !cross() {
		t.Fatal("cross-goroutine clock use did not panic under -race")
	}

	clk2 := NewClock()
	clk2.Advance(1)
	clk2.Handoff()
	var wg sync.WaitGroup
	wg.Add(1)
	var transferred bool
	go func() {
		defer wg.Done()
		defer func() { transferred = recover() == nil }()
		clk2.Advance(1)
	}()
	wg.Wait()
	if !transferred {
		t.Fatal("Handoff did not permit ownership transfer")
	}
}
