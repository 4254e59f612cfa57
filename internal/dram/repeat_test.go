package dram

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"ftlhammer/internal/sim"
	"ftlhammer/internal/snapshot"
)

// cycleStream is a repeated access stream at module level: each cycle
// activates addrs in order, charging step plus any tRC/tFAW stall after
// each access, the way a device front end charges its commands.
type cycleStream struct {
	addrs []uint64
	step  sim.Duration
}

func (s cycleStream) run(m *Module) {
	for _, a := range s.addrs {
		m.Activate(a)
		m.clk.Advance(s.step + m.TakeStall())
	}
}

// repeatCycles drives cycles repetitions of s the way nvme.Device's
// RepeatReads does: exact cycles until the log reports a period, then
// whole periods up to the horizon, then exact cycles again. It returns
// how many cycles ran access by access.
func repeatCycles(m *Module, s cycleStream, cycles int) (exact int) {
	m.StartCycles()
	for c := 0; c < cycles; c++ {
		for _, p := range []int{1, 2, 4} {
			if !m.Repeats(p) || cycles-c <= p {
				continue
			}
			if k := m.Horizon(p, uint64((cycles-c-1)/p)); k > 0 {
				per := m.cycles.period(p)
				m.Skip(p, k)
				m.clk.Advance(sim.Duration(k) * per)
				c += int(k) * p
			}
			break
		}
		m.BeginCycle()
		s.run(m)
		m.EndCycle()
		exact++
	}
	return exact
}

// moduleState is everything observable about a module: its snapshot
// bytes (stats, rows, flips, tRC/tFAW state, frames) and its clock.
func moduleState(t *testing.T, m *Module) ([]byte, sim.Time) {
	t.Helper()
	w := snapshot.NewWriter()
	m.SaveTo(w)
	return snapBytes(w), m.clk.Now()
}

// TestCycleLogMatchesExactStream checks the module's half of next-event
// hammering on its own: Repeats, Horizon and Skip applied to a repeated
// activation stream leave exactly the state of running every access, over
// refresh boundaries, weak-cell samplings and flips.
func TestCycleLogMatchesExactStream(t *testing.T) {
	weak := Profile{Name: "fast-flipping", HCfirst: 1500, ThresholdSigma: 0.1, WeakCellsPerRow: 4}
	small, testbed := SmallGeometry(), TestbedGeometry()
	// rows alternates rows in bank 0; spread alternates two rows in the
	// first banks of n ranks.
	rows := func(rs ...int) (locs []Location) {
		for _, r := range rs {
			locs = append(locs, Location{Row: r})
		}
		return locs
	}
	spread := func(ranks, banks int) (locs []Location) {
		for _, row := range []int{300, 302} {
			for i := 0; i < ranks; i++ {
				for b := 0; b < banks; b++ {
					locs = append(locs, Location{Channel: i >> 2 & 1, DIMM: i >> 1 & 1, Rank: i & 1, Bank: b, Row: row})
				}
			}
		}
		return locs
	}
	type tc struct {
		cfg    Config
		locs   []Location // one cycle's activations, in order
		step   sim.Duration
		cycles int
		skips  bool // the stream must take the fast path; else it must not
	}
	cases := map[string]tc{
		"double-timing":  {cfg: Config{Geometry: small, Profile: weak, Timing: DefaultTiming()}, locs: rows(9, 11), step: 200, cycles: 30000, skips: true},
		"double-blast2":  {cfg: Config{Geometry: small, Profile: weak, Blast2Weight: 2}, locs: rows(9, 11), step: 150, cycles: 30001, skips: true},
		"closed-row":     {cfg: Config{Geometry: small, Profile: weak, Policy: ClosedRow, Timing: DefaultTiming()}, locs: rows(20), step: 90, cycles: 20000, skips: true},
		"two-banks":      {cfg: Config{Geometry: small, Profile: weak, Timing: DefaultTiming()}, locs: append(rows(40, 42, 44), Location{Bank: 3, Row: 40}, Location{Bank: 3, Row: 44}), step: 30, cycles: 15003, skips: true},
		"hit-only-bank":  {cfg: Config{Geometry: small, Profile: weak, Timing: DefaultTiming()}, locs: append(rows(9, 11), Location{Bank: 5, Row: 50}), step: 80, cycles: 20000, skips: true},
		"invulnerable":   {cfg: Config{Geometry: small, Profile: InvulnerableProfile(), Timing: DefaultTiming()}, locs: rows(5, 7), step: 100, cycles: 5000, skips: true},
		"zero-time-step": {cfg: Config{Geometry: small, Profile: weak}, locs: rows(9, 11), step: 0, cycles: 3000, skips: true},
		"two-ranks":      {cfg: Config{Geometry: testbed, Profile: weak, Timing: DefaultTiming()}, locs: append(rows(100, 102), spread(2, 1)...), step: 60, cycles: 8000, skips: true},
		"too-many-rows":  {cfg: Config{Geometry: small, Profile: weak}, locs: rows(1, 4, 7, 10, 13, 16, 19, 22, 25, 28, 31, 34, 37, 40, 43, 46, 49, 52, 55, 58, 61), step: 20, cycles: 300},
		"too-many-banks": {cfg: Config{Geometry: testbed, Profile: InvulnerableProfile()}, locs: spread(3, 8), step: 20, cycles: 300},
		"too-many-ranks": {cfg: Config{Geometry: testbed, Profile: InvulnerableProfile(), Timing: DefaultTiming()}, locs: spread(8, 1), step: 20, cycles: 300},
		"short-warmup":   {cfg: Config{Geometry: small, Profile: weak, Timing: DefaultTiming()}, locs: rows(9, 11), step: 200, cycles: 4},
	}
	for name, c := range cases {
		c := c
		t.Run(name, func(t *testing.T) {
			c.cfg.Seed = 7
			c.cfg.RefreshWindow = sim.Millisecond
			fast := New(c.cfg, sim.NewWorld(7))
			ref := New(c.cfg, sim.NewWorld(7))
			s := cycleStream{step: c.step}
			for _, loc := range c.locs {
				s.addrs = append(s.addrs, fast.Mapper().Unmap(loc))
			}
			exact := repeatCycles(fast, s, c.cycles)
			for i := 0; i < c.cycles; i++ {
				s.run(ref)
			}
			gotState, gotNow := moduleState(t, fast)
			wantState, wantNow := moduleState(t, ref)
			if gotNow != wantNow {
				t.Errorf("clock %d, exact %d", gotNow, wantNow)
			}
			if got, want := fast.Stats(), ref.Stats(); got != want {
				t.Errorf("stats %+v, exact %+v", got, want)
			}
			if got, want := fast.Flips(), ref.Flips(); !reflect.DeepEqual(got, want) {
				t.Errorf("%d flips, exact %d", len(got), len(want))
			}
			if !bytes.Equal(gotState, wantState) {
				t.Errorf("module state differs from the exact stream's")
			}
			if c.skips && exact*4 > c.cycles {
				t.Errorf("ran %d of %d cycles exactly; the stream never settled", exact, c.cycles)
			}
			if !c.skips && exact != c.cycles {
				t.Errorf("ran %d of %d cycles exactly; this stream must not skip", exact, c.cycles)
			}
		})
	}
}

// TestRepeatableConfigs pins which module configurations may advance a
// period at a time.
func TestRepeatableConfigs(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want bool
	}{
		{Config{}, true},
		{Config{ECC: true}, false},
		{Config{TRR: DefaultTRR()}, false},
		{Config{PARA: 0.01}, false},
		{Config{Profile: Profile{Mitigation: MitigationConfig{Mode: MitTRR, TRR: DefaultTRR()}}}, false},
	} {
		c.cfg.Geometry = SmallGeometry()
		if got := New(c.cfg, sim.NewWorld(1)).Repeatable(); got != c.want {
			t.Errorf("%+v: Repeatable %v, want %v", c.cfg, got, c.want)
		}
	}
}

// TestCycleLogBounded pins the cycle log's memory: fixed, whatever the
// geometry or the length of the stream, and under 16 KiB per module.
func TestCycleLogBounded(t *testing.T) {
	if n := unsafe.Sizeof(cycleLog{}); n > 16<<10 {
		t.Errorf("cycle log is %d bytes, want at most 16 KiB", n)
	}
}
