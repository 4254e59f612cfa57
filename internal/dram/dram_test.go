package dram

import (
	"strings"
	"testing"
	"testing/quick"

	"ftlhammer/internal/sim"
)

func TestGeometryValidate(t *testing.T) {
	if err := TestbedGeometry().Validate(); err != nil {
		t.Fatalf("testbed geometry invalid: %v", err)
	}
	if err := SmallGeometry().Validate(); err != nil {
		t.Fatalf("small geometry invalid: %v", err)
	}
	bad := SmallGeometry()
	bad.Banks = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("non-power-of-two banks accepted")
	}
	bad = SmallGeometry()
	bad.RowBytes = 32
	if err := bad.Validate(); err == nil {
		t.Fatal("row smaller than line accepted")
	}
}

func TestGeometryCapacity(t *testing.T) {
	if got := TestbedGeometry().Capacity(); got != 16<<30 {
		t.Fatalf("testbed capacity = %d, want 16 GiB", got)
	}
	if got := SmallGeometry().Capacity(); got != 64<<20 {
		t.Fatalf("small capacity = %d, want 64 MiB", got)
	}
	if got := SSDGeometry().Capacity(); got != 1<<30 {
		t.Fatalf("ssd capacity = %d, want 1 GiB", got)
	}
}

func TestFlatBankDense(t *testing.T) {
	g := TestbedGeometry()
	seen := make(map[int]bool)
	for ch := 0; ch < g.Channels; ch++ {
		for d := 0; d < g.DIMMs; d++ {
			for r := 0; r < g.Ranks; r++ {
				for b := 0; b < g.Banks; b++ {
					fb := g.FlatBank(Location{Channel: ch, DIMM: d, Rank: r, Bank: b})
					if fb < 0 || fb >= g.TotalBanks() || seen[fb] {
						t.Fatalf("FlatBank not dense/unique: %d", fb)
					}
					seen[fb] = true
				}
			}
		}
	}
}

func mapperConfigs() []MapperConfig {
	return []MapperConfig{
		{},
		{Twist: TwistXor3},
		{Twist: TwistInterleave},
		{XorBank: true},
		{XorChannel: true},
		{Twist: TwistInterleave, XorBank: true, XorChannel: true},
	}
}

func TestMapperRoundTrip(t *testing.T) {
	for _, geo := range []Geometry{SmallGeometry(), TestbedGeometry(), SSDGeometry()} {
		for _, cfg := range mapperConfigs() {
			m := NewMapper(geo, cfg)
			cap := geo.Capacity()
			f := func(raw uint64) bool {
				addr := raw % cap
				return m.Unmap(m.Map(addr)) == addr
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatalf("geo %v cfg %+v: %v", geo, cfg, err)
			}
		}
	}
}

func TestMapperLocationsInRange(t *testing.T) {
	g := TestbedGeometry()
	m := NewMapper(g, MapperConfig{Twist: TwistInterleave, XorBank: true, XorChannel: true})
	f := func(raw uint64) bool {
		loc := m.Map(raw % g.Capacity())
		return loc.Channel < g.Channels && loc.DIMM < g.DIMMs &&
			loc.Rank < g.Ranks && loc.Bank < g.Banks &&
			loc.Row < g.RowsPerBank && loc.Col < g.RowBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRowTwistBijective(t *testing.T) {
	for _, tw := range []RowTwist{TwistNone, TwistXor3, TwistInterleave} {
		for _, group := range []int{32, 256} {
			seen := make(map[int]bool)
			for r := 0; r < 1024; r++ {
				p := tw.apply(r, group)
				if p < 0 || p >= 1024 || seen[p] {
					t.Fatalf("twist %v/%d not a bijection at row %d -> %d", tw, group, r, p)
				}
				seen[p] = true
				if got := tw.invert(p, group); got != r {
					t.Fatalf("twist %v/%d invert(%d) = %d, want %d", tw, group, p, got, r)
				}
			}
		}
	}
}

func TestTwistInterleaveAlternates(t *testing.T) {
	// Within a group, even physical offsets must come from the first half
	// of the logical group and odd ones from the second half: the
	// property that sandwiches one tenant's rows between another's.
	tw := TwistInterleave
	for _, group := range []int{32, 128} {
		for p := 0; p < group; p++ {
			logical := tw.invert(p, group)
			if p%2 == 0 && logical >= group/2 {
				t.Fatalf("group %d: phys %d from logical %d, want first half", group, p, logical)
			}
			if p%2 == 1 && logical < group/2 {
				t.Fatalf("group %d: phys %d from logical %d, want second half", group, p, logical)
			}
		}
	}
}

func TestRowAddrsShareRow(t *testing.T) {
	g := SmallGeometry()
	m := NewMapper(g, MapperConfig{Twist: TwistXor3, XorBank: true})
	loc := Location{Bank: 3, Row: 77}
	addrs := m.AppendRowAddrs(nil, loc, 64)
	if len(addrs) != g.RowBytes/64 {
		t.Fatalf("got %d addrs, want %d", len(addrs), g.RowBytes/64)
	}
	for _, a := range addrs {
		got := m.Map(a)
		if got.Row != 77 || got.Bank != 3 {
			t.Fatalf("addr %#x maps to bank %d row %d, want bank 3 row 77", a, got.Bank, got.Row)
		}
	}
}

func TestTable1ProfilesCalibration(t *testing.T) {
	profiles := Table1Profiles()
	if len(profiles) != 14 {
		t.Fatalf("got %d Table 1 profiles, want 14", len(profiles))
	}
	for _, p := range profiles {
		want := uint64(p.MinRateKps) * 64
		if p.HCfirst != want {
			t.Errorf("%s: HCfirst = %d, want %d (rate*0.064s)", p.Name, p.HCfirst, want)
		}
	}
	// The table's headline trend: the weakest 2020 module flips at a
	// lower rate than every 2014 module.
	if profiles[11].HCfirst >= profiles[0].HCfirst {
		t.Error("DDR4 (new) should be weaker than 2014 DDR3")
	}
}

// testModule builds a small module with an aggressively weak profile so
// flips are certain, plus direct aggressor/victim rows in bank 0.
func testModule(t *testing.T, mutate func(*Config)) (*Module, *sim.Clock) {
	t.Helper()
	cfg := Config{
		Geometry: SmallGeometry(),
		Profile: Profile{
			Name:            "test-weak",
			HCfirst:         1000,
			ThresholdSigma:  0.0,
			WeakCellsPerRow: 8,
		},
		Seed: 42,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	world := sim.NewWorld(cfg.Seed)
	return New(cfg, world), world.Clock
}

// rowAddr returns the first address of a physical row in bank 0.
func rowAddr(m *Module, row int) uint64 {
	return m.Mapper().Unmap(Location{Bank: 0, Row: row, Col: 0})
}

// fillRow writes pattern bytes over an entire physical row.
func fillRow(t *testing.T, m *Module, row int, pattern byte) {
	t.Helper()
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = pattern
	}
	for _, a := range m.Mapper().AppendRowAddrs(nil, Location{Bank: 0, Row: row}, 64) {
		if err := m.Write(a, buf); err != nil {
			t.Fatalf("fillRow write: %v", err)
		}
	}
}

// hammer alternates activations of two aggressor rows at the given rate
// for n iterations (2 activations per iteration).
func hammer(m *Module, clk *sim.Clock, rowA, rowB int, ratePerSec float64, iters int) {
	iv := sim.Interval(ratePerSec)
	a, b := rowAddr(m, rowA), rowAddr(m, rowB)
	for i := 0; i < iters; i++ {
		m.Activate(a)
		clk.Advance(iv)
		m.Activate(b)
		clk.Advance(iv)
	}
}

func TestRowBufferHitVsMiss(t *testing.T) {
	m, _ := testModule(t, nil)
	addr := rowAddr(m, 100)
	buf := make([]byte, 8)
	for i := 0; i < 10; i++ {
		if err := m.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Activations != 1 {
		t.Fatalf("same-row reads caused %d activations, want 1", st.Activations)
	}
	if st.RowHits != 9 {
		t.Fatalf("row hits = %d, want 9", st.RowHits)
	}
}

func TestAlternatingRowsActivateEveryAccess(t *testing.T) {
	m, clk := testModule(t, nil)
	hammer(m, clk, 100, 102, 1e7, 50)
	if got := m.Stats().Activations; got != 100 {
		t.Fatalf("activations = %d, want 100", got)
	}
}

func TestClosedRowPolicyAlwaysActivates(t *testing.T) {
	m, _ := testModule(t, func(c *Config) { c.Policy = ClosedRow })
	addr := rowAddr(m, 100)
	buf := make([]byte, 8)
	for i := 0; i < 10; i++ {
		if err := m.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Stats().Activations; got != 10 {
		t.Fatalf("closed-row activations = %d, want 10", got)
	}
}

func TestDoubleSidedHammerFlipsBits(t *testing.T) {
	m, clk := testModule(t, nil)
	victim := 101
	fillRow(t, m, victim, 0xFF) // true-cells will have something to leak
	m.ResetStats()
	hammer(m, clk, victim-1, victim+1, 4e6, 2000) // 4000 disturbs > HCfirst=1000
	st := m.Stats()
	if st.Flips == 0 {
		t.Fatal("no flips from a well-over-threshold double-sided hammer")
	}
	// Flips may land in the double-sided victim (101) and, with this
	// over-budget hammer, also in the single-sided outer rows (99, 103).
	sawVictim := false
	for _, ev := range m.Flips() {
		loc := m.Mapper().Map(ev.PhysAddr)
		if loc.Bank != 0 || (loc.Row != victim && loc.Row != victim-2 && loc.Row != victim+2) {
			t.Fatalf("flip landed at bank %d row %d, want bank 0 rows %d±{0,2}", loc.Bank, loc.Row, victim)
		}
		if loc.Row == victim {
			sawVictim = true
			if ev.ToOne {
				t.Fatal("row full of 0xFF flipped a bit to one")
			}
		}
	}
	if !sawVictim {
		t.Fatal("no flip in the double-sided victim row")
	}
	// Corruption must be visible through the data path.
	saw := false
	buf := make([]byte, 64)
	for _, a := range m.Mapper().AppendRowAddrs(nil, Location{Bank: 0, Row: victim}, 64) {
		if err := m.Read(a, buf); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != 0xFF {
				saw = true
			}
		}
	}
	if !saw {
		t.Fatal("flips recorded but data unchanged")
	}
}

func TestFlipDirectionRespectsStoredData(t *testing.T) {
	// A row full of zeros can only flip 0->1 (anti-cells).
	m, clk := testModule(t, nil)
	victim := 201
	fillRow(t, m, victim, 0x00)
	m.ResetStats()
	hammer(m, clk, victim-1, victim+1, 4e6, 2000)
	for _, ev := range m.Flips() {
		if !ev.ToOne {
			t.Fatal("row full of zeros flipped a bit to zero")
		}
	}
}

func TestSlowHammerDoesNotFlip(t *testing.T) {
	// HCfirst=1000 per 64 ms window corresponds to a ~15.6 K/s
	// disturbance rate; at 10 K/s refresh outruns disturbance.
	m, clk := testModule(t, nil)
	victim := 301
	fillRow(t, m, victim, 0xFF)
	m.ResetStats()
	hammer(m, clk, victim-1, victim+1, 1e4, 2000)
	if got := m.Stats().Flips; got != 0 {
		t.Fatalf("slow hammer caused %d flips, want 0", got)
	}
}

func TestSingleSidedWeakerThanDoubleSided(t *testing.T) {
	// With the same per-aggressor rate and duration, single-sided
	// delivers half the disturbance; pick a budget where double-sided
	// flips and single-sided does not.
	iters := 700 // double-sided disturb=1400 >1000; single-sided 700 < 1000
	mD, clkD := testModule(t, nil)
	fillRow(t, mD, 401, 0xFF)
	mD.ResetStats()
	hammer(mD, clkD, 400, 402, 4e6, iters)

	mS, clkS := testModule(t, nil)
	fillRow(t, mS, 401, 0xFF)
	mS.ResetStats()
	// Single-sided: alternate aggressor 400 with a far row to force
	// activations without disturbing 401 from the other side.
	hammer(mS, clkS, 400, 900, 4e6, iters)

	if mD.Stats().Flips == 0 {
		t.Fatal("double-sided did not flip")
	}
	if mS.Stats().Flips != 0 {
		t.Fatalf("single-sided flipped %d bits with half budget", mS.Stats().Flips)
	}
}

func TestRefreshWindowReset(t *testing.T) {
	// Hammer hard, then idle past a full refresh window: disturbance
	// must reset and the same budget again must be needed.
	m, clk := testModule(t, nil)
	victim := 501
	fillRow(t, m, victim, 0xFF)
	m.ResetStats()
	hammer(m, clk, 500, 502, 4e6, 400) // 800 < 1000, no flip yet
	if m.Stats().Flips != 0 {
		t.Fatal("premature flip")
	}
	clk.Advance(70 * sim.Millisecond) // cross the refresh boundary
	hammer(m, clk, 500, 502, 4e6, 400)
	if m.Stats().Flips != 0 {
		t.Fatal("disturbance survived a refresh window")
	}
}

func TestHalvedRefreshWindowNeedsDoubleRate(t *testing.T) {
	// 16 ms windows: the budget that flips under 64 ms no longer fits.
	m, clk := testModule(t, func(c *Config) { c.RefreshWindow = 16 * sim.Millisecond })
	victim := 601
	fillRow(t, m, victim, 0xFF)
	m.ResetStats()
	// 1200 disturbs at 1 M/s spread over ~2.4 ms per window of 16 ms:
	// still fits; use a rate low enough that a window holds < 1000.
	// 16 ms at 50 K/s = 800 disturbs per window < 1000 threshold.
	hammer(m, clk, 600, 602, 5e4, 3000)
	if got := m.Stats().Flips; got != 0 {
		t.Fatalf("halved window still flipped %d bits at sub-threshold rate", got)
	}
}

func TestPARABlocksFlips(t *testing.T) {
	m, clk := testModule(t, func(c *Config) { c.PARA = 0.05 })
	victim := 701
	fillRow(t, m, victim, 0xFF)
	m.ResetStats()
	hammer(m, clk, 700, 702, 4e6, 4000)
	st := m.Stats()
	if st.Flips != 0 {
		t.Fatalf("PARA(0.05) let %d flips through", st.Flips)
	}
	if st.PARARefreshes == 0 {
		t.Fatal("PARA never fired")
	}
}

func TestTRRBlocksDoubleSided(t *testing.T) {
	m, clk := testModule(t, func(c *Config) { c.TRR = DefaultTRR() })
	victim := 801
	fillRow(t, m, victim, 0xFF)
	m.ResetStats()
	hammer(m, clk, 800, 802, 4e6, 8000)
	st := m.Stats()
	if st.Flips != 0 {
		t.Fatalf("TRR let %d flips through a plain double-sided hammer", st.Flips)
	}
	if st.TRRRefreshes == 0 {
		t.Fatal("TRR never fired")
	}
}

func TestTRRBypassedBySynchronizedDecoys(t *testing.T) {
	// TRRespass/SMASH-style: REF commands are periodic, so the attacker
	// times a decoy activation right after each refresh-command boundary.
	// The size-1 sampler elects the decoy every interval and the true
	// aggressors hammer unsampled.
	m, clk := testModule(t, func(c *Config) { c.TRR = DefaultTRR() })
	victim := 901
	fillRow(t, m, victim, 0xFF)
	m.ResetStats()
	iv := sim.Interval(8e6)
	tREFI := uint64(64*sim.Millisecond) / 8192
	decoy := rowAddr(m, 950)
	a1, a2 := rowAddr(m, victim-1), rowAddr(m, victim+1)
	lastTick := ^uint64(0)
	for i := 0; i < 8000; i++ {
		if tick := uint64(clk.Now()) / tREFI; tick != lastTick {
			lastTick = tick
			m.Activate(decoy) // claims the sampler slot for this interval
			clk.Advance(iv)
		}
		m.Activate(a1)
		clk.Advance(iv)
		m.Activate(a2)
		clk.Advance(iv)
	}
	if got := m.Stats().Flips; got == 0 {
		t.Fatal("synchronized decoy pattern failed to bypass TRR")
	}
}

func TestECCCorrectsSingleFlip(t *testing.T) {
	m, clk := testModule(t, func(c *Config) { c.ECC = true })
	victim := 151
	fillRow(t, m, victim, 0xFF)
	m.ResetStats()
	// Hammer just past the threshold so that (likely) few, separated
	// flips occur.
	hammer(m, clk, victim-1, victim+1, 4e6, 2000)
	if m.Stats().Flips == 0 {
		t.Skip("no flips with this seed (unexpected)")
	}
	buf := make([]byte, 64)
	corrupt := 0
	var readErr error
	for _, a := range m.Mapper().AppendRowAddrs(nil, Location{Bank: 0, Row: victim}, 64) {
		err := m.Read(a, buf)
		if err != nil {
			readErr = err
			continue
		}
		for _, b := range buf {
			if b != 0xFF {
				corrupt++
			}
		}
	}
	st := m.Stats()
	if corrupt > 0 && readErr == nil {
		t.Fatalf("ECC returned %d silently corrupted bytes", corrupt)
	}
	if st.ECCCorrected == 0 && st.ECCUncorrected == 0 {
		t.Fatal("ECC saw no errors despite flips")
	}
}

func TestECCUncorrectableDoubleError(t *testing.T) {
	m, _ := testModule(t, func(c *Config) { c.ECC = true })
	addr := rowAddr(m, 10)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := m.Write(addr, want); err != nil {
		t.Fatal(err)
	}
	// Corrupt two bits in the same word behind ECC's back.
	f := m.frameFor(addr)
	f.data[addr%frameBytes] ^= 0x01
	f.data[addr%frameBytes+1] ^= 0x80
	buf := make([]byte, 8)
	err := m.Read(addr, buf)
	if err == nil {
		t.Fatal("double-bit error not reported")
	}
	if _, ok := err.(*ECCError); !ok {
		t.Fatalf("error type = %T, want *ECCError", err)
	}
	if m.Stats().ECCUncorrected == 0 {
		t.Fatal("uncorrected counter not bumped")
	}
}

func TestECCScrubRepairsArray(t *testing.T) {
	m, _ := testModule(t, func(c *Config) { c.ECC = true; c.ECCScrub = true })
	addr := rowAddr(m, 11)
	want := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	if err := m.Write(addr, want); err != nil {
		t.Fatal(err)
	}
	f := m.frameFor(addr)
	f.data[addr%frameBytes] ^= 0x10
	buf := make([]byte, 8)
	if err := m.Read(addr, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatalf("corrected read = %d, want 9", buf[0])
	}
	if f.data[addr%frameBytes] != 9 {
		t.Fatal("scrub did not repair the array")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	for _, eccOn := range []bool{false, true} {
		m, _ := testModule(t, func(c *Config) { c.ECC = eccOn })
		rng := sim.NewRNG(99)
		f := func(rawAddr uint64, n uint16) bool {
			size := int(n%300) + 1
			addr := rawAddr % (m.cfg.Geometry.Capacity() - uint64(size))
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			if err := m.Write(addr, data); err != nil {
				return false
			}
			got := make([]byte, size)
			if err := m.Read(addr, got); err != nil {
				return false
			}
			for i := range got {
				if got[i] != data[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("ecc=%v: %v", eccOn, err)
		}
	}
}

func TestAccessBeyondCapacity(t *testing.T) {
	m, _ := testModule(t, nil)
	buf := make([]byte, 16)
	if err := m.Read(m.cfg.Geometry.Capacity()-8, buf); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := m.Write(m.cfg.Geometry.Capacity()-8, buf); err == nil {
		t.Fatal("out-of-range write accepted")
	}
}

func TestBoostIncreasesWeakDensity(t *testing.T) {
	base := Config{
		Geometry: SmallGeometry(),
		Profile: Profile{
			Name:            "sparse",
			HCfirst:         1000,
			WeakCellsPerRow: 0.02,
		},
		Seed: 7,
	}
	countFlips := func(cfg Config) int {
		world := sim.NewWorld(1)
		clk := world.Clock
		m := New(cfg, world)
		flips := 0
		for victim := 1; victim < 200; victim += 4 {
			for _, a := range m.Mapper().AppendRowAddrs(nil, Location{Bank: 0, Row: victim}, 64) {
				buf := [64]byte{}
				for i := range buf {
					buf[i] = 0xFF
				}
				if err := m.Write(a, buf[:]); err != nil {
					t.Fatal(err)
				}
			}
			hammer(m, clk, victim-1, victim+1, 4e6, 1500)
			if m.Stats().Flips > 0 {
				flips++
				m.ResetStats()
			}
		}
		return flips
	}
	plain := countFlips(base)
	boosted := base
	boosted.Boosts = []RowRangeBoost{{FromRow: 0, ToRow: 1024, Mult: 50}}
	strong := countFlips(boosted)
	if strong <= plain {
		t.Fatalf("boost did not raise flip-prone rows: plain=%d boosted=%d", plain, strong)
	}
}

func TestInvulnerableProfileNeverFlips(t *testing.T) {
	m, clk := testModule(t, func(c *Config) { c.Profile = InvulnerableProfile() })
	fillRow(t, m, 51, 0xFF)
	hammer(m, clk, 50, 52, 1e7, 20000)
	if got := m.Stats().Flips; got != 0 {
		t.Fatalf("invulnerable profile flipped %d bits", got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []FlipEvent {
		m, clk := testModule(t, nil)
		fillRow(t, m, 61, 0xFF)
		m.ResetStats()
		hammer(m, clk, 60, 62, 4e6, 2000)
		return append([]FlipEvent(nil), m.Flips()...)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("flip counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flip %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBlast2Coupling(t *testing.T) {
	// With distance-2 coupling enabled, a row two away accumulates
	// (weaker) disturbance; hammer long enough and it flips too.
	m, clk := testModule(t, func(c *Config) { c.Blast2Weight = 8 }) // half strength
	victim := 71                                                    // two away from aggressor at 69/73? use rows 69,73: victim 71 both at distance 2
	fillRow(t, m, victim, 0xFF)
	m.ResetStats()
	hammer(m, clk, 69, 73, 8e6, 4000) // distance-2 from 71 on both sides: 8000 * 8/16 = 4000 > 1000
	if got := m.Stats().Flips; got == 0 {
		t.Fatal("distance-2 coupling produced no flips")
	}
}

func TestCrossPartitionTriples(t *testing.T) {
	geo := SmallGeometry()
	m := NewMapper(geo, MapperConfig{Twist: TwistInterleave, XorBank: true})
	// A 2 MiB "L2P table" spans 32 logical rows here — one full
	// interleave group, so the halves alternate physically.
	region := Region{Base: 0, Size: 2 << 20}
	half := region.Size / 2
	owner := func(addr uint64) int {
		if addr-region.Base < half {
			return 0 // attacker partition
		}
		return 1 // victim partition
	}
	triples := FindCrossPartitionTriples(m, region, owner, 0, 1)
	if len(triples) == 0 {
		t.Fatal("no cross-partition triples under interleave mapping")
	}
	for _, tr := range triples {
		if tr.AggRows[0] != tr.VictimRow-1 || tr.AggRows[1] != tr.VictimRow+1 {
			t.Fatalf("malformed triple %+v", tr)
		}
		for side, addrs := range tr.AggAddrs {
			for _, a := range addrs {
				if owner(a) != 0 {
					t.Fatalf("aggressor addr %#x not attacker-owned", a)
				}
				loc := m.Map(a)
				if loc.Row != tr.AggRows[side] {
					t.Fatalf("aggressor addr %#x in row %d, want %d", a, loc.Row, tr.AggRows[side])
				}
			}
		}
		for _, a := range tr.VictimAddrs {
			if owner(a) != 1 {
				t.Fatalf("victim addr %#x not victim-owned", a)
			}
			if loc := m.Map(a); loc.Row != tr.VictimRow {
				t.Fatalf("victim addr %#x in row %d, want %d", a, loc.Row, tr.VictimRow)
			}
		}
	}
	// Without the twist, a half/half split should produce no sandwiches
	// away from the single boundary region.
	mNone := NewMapper(geo, MapperConfig{XorBank: true})
	plain := FindCrossPartitionTriples(mNone, region, owner, 0, 1)
	if len(plain) >= len(triples) {
		t.Fatalf("twist did not increase cross-partition triples: %d vs %d", len(plain), len(triples))
	}
}

func TestSameOwnerTriples(t *testing.T) {
	geo := SmallGeometry()
	m := NewMapper(geo, MapperConfig{XorBank: true})
	region := Region{Base: 0, Size: 4 << 20}
	owner := func(addr uint64) int { return 0 }
	triples := FindSameOwnerTriples(m, region, owner, 0)
	if len(triples) == 0 {
		t.Fatal("single-tenant region yields no triples")
	}
}

func BenchmarkActivate(b *testing.B) {
	world := sim.NewWorld(1)
	clk := world.Clock
	m := New(Config{Geometry: SmallGeometry(), Profile: TestbedProfile(), Seed: 1}, world)
	a1, a2 := rowAddr(m, 100), rowAddr(m, 102)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			m.Activate(a1)
		} else {
			m.Activate(a2)
		}
		clk.Advance(200)
	}
}

func BenchmarkRead4K(b *testing.B) {
	world := sim.NewWorld(1)
	m := New(Config{Geometry: SmallGeometry(), Profile: TestbedProfile(), Seed: 1}, world)
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Read(uint64(i%1024)*4096, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStringFormatters(t *testing.T) {
	if s := TestbedGeometry().String(); !strings.Contains(s, "2ch") {
		t.Fatalf("geometry string %q", s)
	}
	if s := TestbedProfile().String(); !strings.Contains(s, "3000K") {
		t.Fatalf("profile string %q", s)
	}
	ev := FlipEvent{Row: 7, Bit: 3, PhysAddr: 0x1000}
	if s := ev.String(); !strings.Contains(s, "row=7") || !strings.Contains(s, "1->0") {
		t.Fatalf("flip event string %q", s)
	}
	ev.ToOne = true
	if !strings.Contains(ev.String(), "0->1") {
		t.Fatal("flip direction not rendered")
	}
	if OpenRow.String() != "open-row" || ClosedRow.String() != "closed-row" {
		t.Fatal("policy strings")
	}
	for _, tw := range []RowTwist{TwistNone, TwistXor3, TwistInterleave, RowTwist(9)} {
		if tw.String() == "" {
			t.Fatal("empty twist string")
		}
	}
	if (&ECCError{Addr: 0x40}).Error() == "" {
		t.Fatal("empty ECC error")
	}
}

func TestRegionContains(t *testing.T) {
	r := Region{Base: 100, Size: 50}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Fatal("region bounds wrong")
	}
}

func TestTRRLargerSamplerCatchesMoreSides(t *testing.T) {
	// With sampler size 2 and synchronized single-decoy timing, the
	// second sampler slot admits an aggressor, so the victim is
	// refreshed and the bypass that works against size 1 fails.
	run := func(sampler int) uint64 {
		cfg := Config{
			Geometry: SmallGeometry(),
			Profile: Profile{
				Name:            "trr-test",
				HCfirst:         1000,
				WeakCellsPerRow: 8,
			},
			TRR:  TRRConfig{Enabled: true, SamplerSize: sampler, CommandsPerWindow: 8192},
			Seed: 42,
		}
		world := sim.NewWorld(1)
		clk := world.Clock
		m := New(cfg, world)
		victim := 901
		buf := make([]byte, 64)
		for i := range buf {
			buf[i] = 0xFF
		}
		for _, a := range m.Mapper().AppendRowAddrs(nil, Location{Bank: 0, Row: victim}, 64) {
			if err := m.Write(a, buf); err != nil {
				t.Fatal(err)
			}
		}
		m.ResetStats()
		iv := sim.Interval(8e6)
		tREFI := uint64(64*sim.Millisecond) / 8192
		decoy := rowAddr(m, 950)
		a1, a2 := rowAddr(m, victim-1), rowAddr(m, victim+1)
		lastTick := ^uint64(0)
		for i := 0; i < 8000; i++ {
			if tick := uint64(clk.Now()) / tREFI; tick != lastTick {
				lastTick = tick
				m.Activate(decoy)
				clk.Advance(iv)
			}
			m.Activate(a1)
			clk.Advance(iv)
			m.Activate(a2)
			clk.Advance(iv)
		}
		return m.Stats().Flips
	}
	if run(1) == 0 {
		t.Fatal("single-slot sampler should be bypassed by one decoy")
	}
	if run(2) != 0 {
		t.Fatal("two-slot sampler should catch the aggressors past one decoy")
	}
}

func TestMapperRowAddrsStride(t *testing.T) {
	g := SmallGeometry()
	m := NewMapper(g, MapperConfig{})
	loc := Location{Bank: 1, Row: 5}
	fine := m.AppendRowAddrs(nil, loc, 4)
	if len(fine) != g.RowBytes/4 {
		t.Fatalf("stride-4 count %d", len(fine))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive stride accepted")
		}
	}()
	m.AppendRowAddrs(nil, loc, 0)
}

func TestActivateOutOfRangePanics(t *testing.T) {
	m, _ := testModule(t, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Activate did not panic")
		}
	}()
	m.Activate(m.Config().Geometry.Capacity())
}

func TestTimingTRCBoundsBankRate(t *testing.T) {
	m, clk := testModule(t, func(c *Config) {
		c.Profile = InvulnerableProfile()
		c.Timing = DefaultTiming()
	})
	// Demand activations of one bank far faster than tRC allows: the
	// accumulated stall must make up the difference.
	const n = 10000
	iv := sim.Interval(1e9) // 1 ns between requests: way beyond physics
	a, b := rowAddr(m, 10), rowAddr(m, 12)
	for i := 0; i < n; i++ {
		m.Activate(a)
		clk.Advance(iv)
		m.Activate(b)
		clk.Advance(iv)
	}
	stall := m.TakeStall()
	wall := clk.Now().Sub(0) + stall
	rate := float64(2*n) / wall.Seconds()
	maxRate := 1 / DefaultTiming().TRC.Seconds()
	if rate > maxRate*1.05 {
		t.Fatalf("effective bank rate %.0f exceeds tRC bound %.0f", rate, maxRate)
	}
	if stall == 0 {
		t.Fatal("no stall accumulated at a super-physical request rate")
	}
	// Draining clears it.
	if m.TakeStall() != 0 {
		t.Fatal("stall not cleared")
	}
}

func TestTimingNoStallAtRealisticRate(t *testing.T) {
	m, clk := testModule(t, func(c *Config) {
		c.Profile = InvulnerableProfile()
		c.Timing = DefaultTiming()
	})
	// 4 M activations/s alternating two rows in one bank: well under
	// the ~21 M/s tRC ceiling.
	iv := sim.Interval(4e6)
	a, b := rowAddr(m, 10), rowAddr(m, 12)
	for i := 0; i < 20000; i++ {
		m.Activate(a)
		clk.Advance(iv)
		m.Activate(b)
		clk.Advance(iv)
	}
	if stall := m.TakeStall(); stall != 0 {
		t.Fatalf("realistic rate accumulated %v of stall", stall)
	}
}

func TestTimingDisabledByDefault(t *testing.T) {
	m, clk := testModule(t, nil)
	for i := 0; i < 1000; i++ {
		m.Activate(rowAddr(m, 10+i%2*2))
		clk.Advance(1)
	}
	if m.TakeStall() != 0 {
		t.Fatal("zero Timing config produced stalls")
	}
}
