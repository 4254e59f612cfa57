package dram

import (
	"testing"

	"ftlhammer/internal/sim"
)

// TestFrameReadAllocs pins the zero-allocation property of a frame-sized
// (4 KiB) module read, the path perfgate's DRAMBatch case times: once the
// sparse frame store is materialized, reading back does not allocate.
func TestFrameReadAllocs(t *testing.T) {
	m := New(Config{
		Geometry: SmallGeometry(),
		Profile:  InvulnerableProfile(),
		Seed:     5,
	}, sim.NewWorld(5))
	const span = 4096
	buf := make([]byte, span)
	for addr := uint64(0); addr < 8*span; addr += span {
		if err := m.Write(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		if err := m.Read(uint64(i%8)*span, buf); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Errorf("4 KiB read: %v allocs/op, want 0", avg)
	}
}
