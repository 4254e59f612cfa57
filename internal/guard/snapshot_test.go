package guard

import (
	"bytes"
	"testing"

	"ftlhammer/internal/sim"
	"ftlhammer/internal/snapshot"
)

// roundTrip checkpoints g and restores the bytes into a fresh guard
// built from the same config.
func roundTrip(t *testing.T, g *Guard, cfg Config) *Guard {
	t.Helper()
	w := snapshot.NewWriter()
	g.SaveTo(w)
	snap, err := snapshot.Decode(snapBytes(w))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	g2 := New(cfg)
	if err := g2.LoadFrom(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return g2
}

// TestSnapshotRoundTripIdenticalDetections drives an attack halfway to
// the threshold, checkpoints mid-window, and verifies the restored
// guard continues with exactly the same detections at exactly the same
// observations as the original — filter heat, epoch phase, and penalty
// state all survive.
func TestSnapshotRoundTripIdenticalDetections(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowThreshold = 1000
	g := New(cfg)
	clk := sim.NewClock()
	// Benign background plus 600 aggressor hits: below threshold, heat
	// resident only in the filters.
	rng := sim.NewRNG(7)
	for i := 0; i < 600; i++ {
		g.Observe(1, 7, clk.Now())
		g.Observe(2, rng.Uint64n(1<<12), clk.Now())
		clk.Advance(3 * sim.Microsecond)
	}
	if g.Violations(1) != 0 {
		t.Fatal("tripped before checkpoint; test wants mid-flight heat")
	}

	g2 := roundTrip(t, g, cfg)
	if got, want := g2.Stats(), g.Stats(); got != want {
		t.Fatalf("stats after restore = %+v, want %+v", got, want)
	}
	if g2.Occupancy() != g.Occupancy() {
		t.Fatalf("occupancy after restore = %v, want %v", g2.Occupancy(), g.Occupancy())
	}

	// Continue both guards in lockstep: every Observe must return the
	// same verdict, and the first detection must land on the same call.
	firstOrig, firstRest := -1, -1
	for i := 0; i < 800; i++ {
		now := clk.Now()
		c1 := g.Observe(1, 7, now)
		c2 := g2.Observe(1, 7, now)
		if c1 != c2 {
			t.Fatalf("op %d: caps diverge (orig %v, restored %v)", i, c1, c2)
		}
		if firstOrig < 0 && g.Violations(1) > 0 {
			firstOrig = i
		}
		if firstRest < 0 && g2.Violations(1) > 0 {
			firstRest = i
		}
		clk.Advance(3 * sim.Microsecond)
	}
	if firstOrig < 0 {
		t.Fatal("attack never detected after restore window")
	}
	if firstOrig != firstRest {
		t.Fatalf("first detection at op %d original vs %d restored", firstOrig, firstRest)
	}
	if g.Violations(1) != g2.Violations(1) {
		t.Fatalf("violations diverge: %d vs %d", g.Violations(1), g2.Violations(1))
	}
}

// TestSnapshotRejectsGeometryMismatch: a snapshot whose filters have
// another counter count must not load into a guard — the counters would
// not mean the same thing.
func TestSnapshotRejectsGeometryMismatch(t *testing.T) {
	g := New(DefaultConfig())
	g.filters[0] = newCountingBloom(1024, hashCount)
	g.filters[1] = newCountingBloom(1024, hashCount)
	g.Observe(1, 7, 0)
	w := snapshot.NewWriter()
	g.SaveTo(w)
	snap, err := snapshot.Decode(snapBytes(w))
	if err != nil {
		t.Fatal(err)
	}
	if err := New(DefaultConfig()).LoadFrom(snap); err == nil {
		t.Fatal("mismatched filter geometry accepted")
	}
}

// TestConfigStringPinned pins the text every guarded device's
// ConfigDigest hashes, for the configurations the product builds: the
// default and the defenses experiment's enforcing and detect-only ones.
func TestConfigStringPinned(t *testing.T) {
	enforce := Config{RowThreshold: 4096, Enforce: true}
	detect := Config{RowThreshold: 4096}
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{DefaultConfig(), "{Window:64.000ms RowThreshold:8192 ThrottleIOPS:50000 Penalty:256.000ms Enforce:true HashCount:4 FilterCounters:4096}"},
		{enforce, "{Window:64.000ms RowThreshold:4096 ThrottleIOPS:50000 Penalty:256.000ms Enforce:true HashCount:4 FilterCounters:4096}"},
		{detect, "{Window:64.000ms RowThreshold:4096 ThrottleIOPS:50000 Penalty:256.000ms Enforce:false HashCount:4 FilterCounters:4096}"},
	} {
		if got := New(tc.cfg).ConfigString(); got != tc.want {
			t.Errorf("ConfigString = %q, want %q", got, tc.want)
		}
	}
}

// snapBytes assembles a snapshot stream in memory.
func snapBytes(w *snapshot.Writer) []byte {
	var b bytes.Buffer
	w.WriteTo(&b)
	return b.Bytes()
}
