package guard

import (
	"testing"

	"ftlhammer/internal/sim"
)

func TestHammerSignatureTrips(t *testing.T) {
	g := New(DefaultConfig())
	clk := sim.NewClock()
	// Hammering: two lines pounded far beyond the threshold within one
	// window.
	var cap float64
	for i := 0; i < 20000; i++ {
		key := uint64(1) // aggressor row A
		if i%2 == 1 {
			key = 2 // aggressor row B
		}
		cap = g.Observe(1, key, clk.Now())
		clk.Advance(300 * sim.Nanosecond)
	}
	if g.Violations(1) == 0 {
		t.Fatal("hammer signature not detected")
	}
	if cap == 0 {
		t.Fatal("no throttle imposed on hammering namespace")
	}
}

func TestLegitimateTrafficUntouched(t *testing.T) {
	g := New(DefaultConfig())
	clk := sim.NewClock()
	rng := sim.NewRNG(5)
	// Spatially spread traffic, even at very high rate, never trips.
	for i := 0; i < 200000; i++ {
		key := rng.Uint64n(1 << 14) // spread across rows
		if cap := g.Observe(2, key, clk.Now()); cap != 0 {
			t.Fatalf("legitimate traffic throttled at op %d", i)
		}
		clk.Advance(200 * sim.Nanosecond)
	}
	if g.Violations(2) != 0 {
		t.Fatal("spurious violations")
	}
}

func TestHotBlockBelowWindowBudgetUntouched(t *testing.T) {
	// A genuinely hot block hit 1000 times per window is far below the
	// hammer threshold and must pass.
	g := New(DefaultConfig())
	clk := sim.NewClock()
	for w := 0; w < 10; w++ {
		for i := 0; i < 1000; i++ {
			if cap := g.Observe(3, 42, clk.Now()); cap != 0 {
				t.Fatal("hot block throttled")
			}
			clk.Advance(sim.Microsecond)
		}
		clk.Advance(70 * sim.Millisecond) // next window
	}
}

func TestWindowResetForgetsHeat(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowThreshold = 1000
	g := New(cfg)
	clk := sim.NewClock()
	// 900 hits, then a window boundary, then 900 more: never trips.
	for rounds := 0; rounds < 4; rounds++ {
		for i := 0; i < 900; i++ {
			g.Observe(1, 7, clk.Now())
		}
		clk.Advance(65 * sim.Millisecond)
	}
	if g.Violations(1) != 0 {
		t.Fatal("heat leaked across refresh windows")
	}
}

func TestPenaltyExpires(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowThreshold = 100
	g := New(cfg)
	clk := sim.NewClock()
	for i := 0; i < 150; i++ {
		g.Observe(1, 7, clk.Now())
	}
	if cap := g.Observe(1, 9999, clk.Now()); cap == 0 {
		t.Fatal("not throttled right after violation")
	}
	clk.Advance(penalty + 300*sim.Millisecond)
	if cap := g.Observe(1, 9999, clk.Now()); cap != 0 {
		t.Fatal("throttle did not expire")
	}
}

func TestDetectOnlyMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Enforce = false
	cfg.RowThreshold = 100
	g := New(cfg)
	clk := sim.NewClock()
	for i := 0; i < 500; i++ {
		if cap := g.Observe(1, 7, clk.Now()); cap != 0 {
			t.Fatal("detect-only mode throttled")
		}
	}
	if g.Violations(1) == 0 {
		t.Fatal("detect-only mode failed to record violations")
	}
}
