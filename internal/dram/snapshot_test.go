package dram

import (
	"bytes"
	"reflect"
	"testing"

	"ftlhammer/internal/sim"
	"ftlhammer/internal/snapshot"
)

// TestRestoreRebuildsMemos checks the module's host-side memos across a
// restore into the same module. A run crosses refresh boundaries and is
// saved midway, then continues; loading the mid-run snapshot and
// restoring the clock leaves the frame cache, the row-state caches and
// the rows' epoch ends built by the later part of the run. Replaying
// that part must give the first pass's stats, flips, read data, array
// bytes and snapshot.
func TestRestoreRebuildsMemos(t *testing.T) {
	m, clk := testModule(t, func(c *Config) {
		c.Mapping = MapperConfig{Twist: TwistInterleave, TwistGroup: 8, XorBank: true}
		c.RefreshWindow = sim.Millisecond
		c.Timing = DefaultTiming()
		c.Blast2Weight = 2
	})
	mp := m.Mapper()
	// Aggressor rows around victims 101, 103 and 613 in two banks; 612
	// and 614 are the same-bank conflict rows (row^512) of 100 and 102.
	var aggs []uint64
	var victims []Location
	for _, bank := range []int{0, 3} {
		for _, row := range []int{100, 102, 104, 612, 614} {
			aggs = append(aggs, mp.Unmap(Location{Bank: bank, Row: row}))
		}
		for _, row := range []int{101, 103, 613} {
			victims = append(victims, Location{Bank: bank, Row: row})
		}
	}
	// run drives n accesses of a seeded stream: mostly aggressor
	// activations, with victim-line writes and reads. It returns the
	// bytes the reads returned.
	run := func(seed uint64, n int) []byte {
		rng := sim.NewRNG(seed)
		buf := make([]byte, lineBytes)
		var out []byte
		for i := 0; i < n; i++ {
			v := victims[rng.Uint64n(uint64(len(victims)))]
			v.Col = int(rng.Uint64n(uint64(m.cfg.Geometry.RowBytes/lineBytes))) * lineBytes
			switch rng.Uint64n(16) {
			case 0:
				for j := range buf {
					buf[j] = byte(i)
				}
				if err := m.Write(mp.Unmap(v), buf); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := m.Read(mp.Unmap(v), buf); err != nil {
					t.Fatal(err)
				}
				out = append(out, buf...)
			default:
				m.Activate(aggs[rng.Uint64n(uint64(len(aggs)))])
			}
			clk.Advance(50*sim.Nanosecond + m.TakeStall())
		}
		return out
	}
	save := func() []byte {
		w := snapshot.NewWriter()
		m.SaveTo(w)
		return snapBytes(w)
	}
	peek := func() []byte {
		var b []byte
		for _, v := range victims {
			for _, row := range []int{v.Row - 1, v.Row, v.Row + 1} {
				for _, a := range mp.AppendRowAddrs(nil, Location{Bank: v.Bank, Row: row}, 1) {
					b = append(b, m.Peek(a))
				}
			}
		}
		return b
	}

	run(1, 30000)
	if clk.Now() <= sim.Time(m.cfg.RefreshWindow) {
		t.Fatalf("first part ends at %v, before the first refresh window ends", clk.Now())
	}
	mid, midT, midFlips := save(), clk.Now(), len(m.Flips())
	wantRead := run(2, 30000)
	wantStats, wantFlips := m.Stats(), append([]FlipEvent(nil), m.Flips()...)
	wantPeek, wantSnap := peek(), save()
	if len(wantFlips) == midFlips {
		t.Fatal("the replayed part applies no flips; the test needs some")
	}

	snap, err := snapshot.Decode(mid)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadFrom(snap); err != nil {
		t.Fatal(err)
	}
	clk.Restore(midT)
	gotRead := run(2, 30000)
	if got := m.Stats(); got != wantStats {
		t.Errorf("stats after replay = %+v, want %+v", got, wantStats)
	}
	if got := m.Flips(); !reflect.DeepEqual(got, wantFlips) {
		t.Errorf("replay applied %d flips, want %d (or they differ)", len(got), len(wantFlips))
	}
	if !bytes.Equal(gotRead, wantRead) {
		t.Error("replayed reads returned different bytes")
	}
	if !bytes.Equal(peek(), wantPeek) {
		t.Error("array bytes differ after replay")
	}
	if !bytes.Equal(save(), wantSnap) {
		t.Error("snapshot after replay differs from the first pass's")
	}
}

// snapBytes assembles a snapshot stream in memory.
func snapBytes(w *snapshot.Writer) []byte {
	var b bytes.Buffer
	w.WriteTo(&b)
	return b.Bytes()
}
