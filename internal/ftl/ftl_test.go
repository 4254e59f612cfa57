package ftl

import (
	"bytes"
	"testing"
	"testing/quick"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/sim"
	"ftlhammer/internal/snapshot"
)

// testEnv builds a small FTL over tiny flash and small DRAM.
func testEnv(t *testing.T, mutate func(*Config)) (*FTL, *dram.Module, *nand.Array, *sim.Clock) {
	t.Helper()
	world := sim.NewWorld(1)
	clk := world.Clock
	mem := dram.New(dram.Config{
		Geometry: dram.SmallGeometry(),
		Profile:  dram.InvulnerableProfile(),
		Seed:     1,
	}, world)
	flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency())
	cfg := Config{
		NumLBAs: flash.Geometry().TotalPages() * 3 / 4, // 25% OP
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg, mem, flash)
	if err != nil {
		t.Fatal(err)
	}
	return f, mem, flash, clk
}

func block(f *FTL, b byte) []byte {
	p := make([]byte, f.BlockBytes())
	for i := range p {
		p[i] = b
	}
	return p
}

func TestWriteReadRoundTrip(t *testing.T) {
	f, _, _, _ := testEnv(t, nil)
	want := block(f, 0x5A)
	if err := f.WriteLBA(10, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, f.BlockBytes())
	mapped, err := f.ReadLBA(10, got)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped {
		t.Fatal("written LBA reported unmapped")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read data differs")
	}
}

func TestUnwrittenReadsZeroAndSkipFlash(t *testing.T) {
	f, _, flash, _ := testEnv(t, nil)
	got := block(f, 0xEE)
	mapped, err := f.ReadLBA(42, got)
	if err != nil {
		t.Fatal(err)
	}
	if mapped {
		t.Fatal("unwritten LBA reported mapped")
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten LBA returned non-zero data")
		}
	}
	if flash.Stats().Reads != 0 {
		t.Fatal("unmapped read touched flash")
	}
	if f.Stats().ReadsUnmapped != 1 {
		t.Fatal("ReadsUnmapped not counted")
	}
}

func TestOverwriteIsCopyOnWrite(t *testing.T) {
	f, _, _, _ := testEnv(t, nil)
	if err := f.WriteLBA(5, block(f, 1)); err != nil {
		t.Fatal(err)
	}
	first := f.PPNOf(5)
	if err := f.WriteLBA(5, block(f, 2)); err != nil {
		t.Fatal(err)
	}
	second := f.PPNOf(5)
	if first == second {
		t.Fatal("overwrite reused the same physical page")
	}
	got := make([]byte, f.BlockBytes())
	if _, err := f.ReadLBA(5, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatal("overwrite did not take effect")
	}
}

func TestTrimUnmaps(t *testing.T) {
	f, _, flash, _ := testEnv(t, nil)
	if err := f.WriteLBA(7, block(f, 3)); err != nil {
		t.Fatal(err)
	}
	if err := f.Trim(7); err != nil {
		t.Fatal(err)
	}
	before := flash.Stats().Reads
	got := make([]byte, f.BlockBytes())
	mapped, err := f.ReadLBA(7, got)
	if err != nil {
		t.Fatal(err)
	}
	if mapped {
		t.Fatal("trimmed LBA still mapped")
	}
	if flash.Stats().Reads != before {
		t.Fatal("trimmed read touched flash")
	}
}

func TestOutOfRangeLBA(t *testing.T) {
	f, _, _, _ := testEnv(t, nil)
	buf := block(f, 0)
	if _, err := f.ReadLBA(LBA(f.NumLBAs()), buf); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := f.WriteLBA(LBA(f.NumLBAs()), buf); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if err := f.Trim(LBA(f.NumLBAs())); err == nil {
		t.Fatal("out-of-range trim accepted")
	}
	if _, err := f.ReadLBA(0, buf[:100]); err != ErrUnaligned {
		t.Fatal("unaligned read accepted")
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	f, _, _, _ := testEnv(t, nil)
	// Write far more data than raw capacity by overwriting a small
	// working set: GC must keep reclaiming invalidated pages.
	total := f.flash.Geometry().TotalPages() * 4
	for i := uint64(0); i < total; i++ {
		lba := LBA(i % 100)
		if err := f.WriteLBA(lba, block(f, byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("GC never ran")
	}
	if f.WriteAmplification() < 1 {
		t.Fatalf("write amplification %v < 1", f.WriteAmplification())
	}
	// Working set must still be readable with the latest data.
	got := make([]byte, f.BlockBytes())
	for lba := LBA(0); lba < 100; lba++ {
		if _, err := f.ReadLBA(lba, got); err != nil {
			t.Fatalf("read after GC: %v", err)
		}
	}
}

func TestDeviceFullWhenAllLive(t *testing.T) {
	// Export the maximum logical capacity and overwrite it repeatedly:
	// GC must keep reclaiming the dead copies.
	world := sim.NewWorld(1)
	mem := dram.New(dram.Config{Geometry: dram.SmallGeometry(), Profile: dram.InvulnerableProfile(), Seed: 1}, world)
	flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency())
	maxLBAs := flash.Geometry().TotalPages() * 15 / 16
	g, err := New(Config{NumLBAs: maxLBAs}, mem, flash)
	if err != nil {
		t.Fatal(err)
	}
	var writeErr error
	for pass := 0; pass < 4 && writeErr == nil; pass++ {
		for lba := LBA(0); uint64(lba) < maxLBAs; lba++ {
			if writeErr = g.WriteLBA(lba, block(g, byte(pass))); writeErr != nil {
				break
			}
		}
	}
	// Overwriting the full logical space repeatedly must either keep
	// succeeding (GC reclaims old copies) — it should never corrupt.
	if writeErr != nil {
		t.Fatalf("overwrite workload failed: %v", writeErr)
	}
}

func TestTableBytesMatchesPaperRatio(t *testing.T) {
	// 1 GiB of capacity -> ~1 MiB of linear L2P table (§4.1, [6]).
	world := sim.NewWorld(1)
	mem := dram.New(dram.Config{Geometry: dram.SmallGeometry(), Profile: dram.InvulnerableProfile(), Seed: 1}, world)
	flash := nand.New(nand.DefaultGeometry(), nand.DefaultLatency())
	numLBAs := uint64(245760) // 15/16 of 256 Ki pages
	f, err := New(Config{NumLBAs: numLBAs}, mem, flash)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.TableBytes(); got != numLBAs*4 {
		t.Fatalf("TableBytes = %d, want %d", got, numLBAs*4)
	}
	ratio := float64(f.TableBytes()) / float64(numLBAs*4096)
	if ratio < 0.0009 || ratio > 0.0011 {
		t.Fatalf("table/capacity ratio %v, want ~1/1024", ratio)
	}
}

func TestEntryAddrLinear(t *testing.T) {
	f, _, _, _ := testEnv(t, nil)
	a0, err := f.EntryAddr(0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := f.EntryAddr(1)
	if err != nil {
		t.Fatal(err)
	}
	if a1-a0 != EntryBytes {
		t.Fatalf("entry stride = %d, want %d", a1-a0, EntryBytes)
	}
	if _, err := f.EntryAddr(LBA(f.NumLBAs())); err == nil {
		t.Fatal("out-of-range EntryAddr accepted")
	}
}

func TestReadsTouchL2PRows(t *testing.T) {
	f, mem, _, _ := testEnv(t, nil)
	if err := f.WriteLBA(0, block(f, 1)); err != nil {
		t.Fatal(err)
	}
	before := mem.Stats()
	buf := make([]byte, f.BlockBytes())
	for i := 0; i < 100; i++ {
		if _, err := f.ReadLBA(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	after := mem.Stats()
	if after.Reads == before.Reads {
		t.Fatal("host reads performed no DRAM accesses")
	}
}

func TestHammerAmplification(t *testing.T) {
	countActivations := func(hammers int) uint64 {
		world := sim.NewWorld(1)
		mem := dram.New(dram.Config{Geometry: dram.SmallGeometry(), Profile: dram.InvulnerableProfile(), Seed: 1}, world)
		flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency())
		f, err := New(Config{NumLBAs: flash.Geometry().TotalPages() * 3 / 4, HammersPerIO: hammers}, mem, flash)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, f.BlockBytes())
		base := mem.Stats().Activations
		for i := 0; i < 200; i++ {
			// Alternate two LBAs whose entries are in different rows
			// to force activations like the attack workload does.
			if _, err := f.ReadLBA(0, buf); err != nil {
				t.Fatal(err)
			}
			if _, err := f.ReadLBA(LBA(f.NumLBAs()-1), buf); err != nil {
				t.Fatal(err)
			}
		}
		return mem.Stats().Activations - base
	}
	plain := countActivations(1)
	amplified := countActivations(5)
	if amplified < plain*3 {
		t.Fatalf("x5 amplification only raised activations from %d to %d", plain, amplified)
	}
}

func TestL2PCacheAbsorbsAccesses(t *testing.T) {
	run := func(cached bool) (uint64, *FTL) {
		world := sim.NewWorld(1)
		mem := dram.New(dram.Config{Geometry: dram.SmallGeometry(), Profile: dram.InvulnerableProfile(), Seed: 1}, world)
		flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency())
		f, err := New(Config{
			NumLBAs: flash.Geometry().TotalPages() * 3 / 4,
			Cache:   CacheConfig{Enabled: cached, Lines: 256},
		}, mem, flash)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, f.BlockBytes())
		base := mem.Stats().Reads
		for i := 0; i < 500; i++ {
			if _, err := f.ReadLBA(3, buf); err != nil {
				t.Fatal(err)
			}
		}
		return mem.Stats().Reads - base, f
	}
	uncached, _ := run(false)
	cached, f := run(true)
	if cached >= uncached {
		t.Fatalf("cache did not reduce DRAM reads: %d vs %d", cached, uncached)
	}
	if f.Stats().CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestHashedRoundTrip(t *testing.T) {
	f, _, _, _ := testEnv(t, func(c *Config) { c.Hashed = true; c.HashKey = 0xfeed })
	rng := sim.NewRNG(4)
	prop := func(lbaRaw uint32, b byte) bool {
		lba := LBA(uint64(lbaRaw) % f.NumLBAs())
		data := block(f, b)
		if err := f.WriteLBA(lba, data); err != nil {
			// Device-full is acceptable under random writes.
			return err == ErrDeviceFull
		}
		got := make([]byte, f.BlockBytes())
		mapped, err := f.ReadLBA(lba, got)
		return err == nil && mapped && got[0] == b && rng != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestHashedHidesEntryAddr(t *testing.T) {
	f, _, _, _ := testEnv(t, func(c *Config) { c.Hashed = true; c.HashKey = 1 })
	if _, err := f.EntryAddr(0); err == nil {
		t.Fatal("hashed layout revealed an entry address")
	}
}

func TestHashedKeyChangesLayout(t *testing.T) {
	mk := func(key uint64) *FTL {
		world := sim.NewWorld(1)
		mem := dram.New(dram.Config{Geometry: dram.SmallGeometry(), Profile: dram.InvulnerableProfile(), Seed: 1}, world)
		flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency())
		f, err := New(Config{NumLBAs: flash.Geometry().TotalPages() * 3 / 4, Hashed: true, HashKey: key}, mem, flash)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := mk(1), mk(2)
	diff := 0
	for lba := LBA(0); lba < 256; lba++ {
		if a.hashLBA(lba) != b.hashLBA(lba) {
			diff++
		}
	}
	if diff < 200 {
		t.Fatalf("different keys left %d/256 buckets identical", 256-diff)
	}
}

func TestCorruptMappingDetected(t *testing.T) {
	f, mem, _, _ := testEnv(t, nil)
	if err := f.WriteLBA(9, block(f, 1)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry to an impossible PPN behind the FTL's back (as a
	// bitflip in a high-order bit would).
	addr, err := f.EntryAddr(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Write(addr, []byte{0xFE, 0xFF, 0xFF, 0x7F}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.BlockBytes())
	_, err = f.ReadLBA(9, buf)
	if err == nil {
		t.Fatal("corrupt translation not detected")
	}
	if _, ok := err.(*CorruptMappingError); !ok {
		t.Fatalf("error type = %T, want *CorruptMappingError", err)
	}
	if f.Stats().CorruptReads != 1 {
		t.Fatal("CorruptReads not counted")
	}
}

func TestRedirectedMappingServesOtherData(t *testing.T) {
	// The information-leak primitive (§3.2): rewrite LBA A's entry to
	// point at LBA B's physical page; reading A returns B's data.
	f, mem, _, _ := testEnv(t, nil)
	if err := f.WriteLBA(1, block(f, 0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteLBA(2, block(f, 0xBB)); err != nil {
		t.Fatal(err)
	}
	victimPPN := f.PPNOf(2)
	addrA, err := f.EntryAddr(1)
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte{byte(victimPPN), byte(victimPPN >> 8), byte(victimPPN >> 16), byte(victimPPN >> 24)}
	if err := mem.Write(addrA, raw); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, f.BlockBytes())
	if _, err := f.ReadLBA(1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xBB {
		t.Fatalf("redirected read returned %#x, want 0xBB", got[0])
	}
}

func TestL2PRegionCoversTable(t *testing.T) {
	f, _, _, _ := testEnv(t, nil)
	r := f.L2PRegion()
	if r.Size != f.TableBytes() {
		t.Fatalf("region size %d != table bytes %d", r.Size, f.TableBytes())
	}
	last, err := f.EntryAddr(LBA(f.NumLBAs() - 1))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains(last) || !r.Contains(r.Base) || r.Contains(r.Base+r.Size) {
		t.Fatal("region bounds wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	world := sim.NewWorld(1)
	mem := dram.New(dram.Config{Geometry: dram.SmallGeometry(), Profile: dram.InvulnerableProfile(), Seed: 1}, world)
	flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency())
	if _, err := New(Config{NumLBAs: 0}, mem, flash); err == nil {
		t.Fatal("zero NumLBAs accepted")
	}
	if _, err := New(Config{NumLBAs: flash.Geometry().TotalPages()}, mem, flash); err == nil {
		t.Fatal("no over-provisioning accepted")
	}
	if _, err := New(Config{NumLBAs: 100, Cache: CacheConfig{Enabled: true, Lines: 3}}, mem, flash); err == nil {
		t.Fatal("non-power-of-two cache accepted")
	}
}

func BenchmarkReadMapped(b *testing.B) {
	world := sim.NewWorld(1)
	mem := dram.New(dram.Config{Geometry: dram.SmallGeometry(), Profile: dram.InvulnerableProfile(), Seed: 1}, world)
	flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency())
	f, err := New(Config{NumLBAs: flash.Geometry().TotalPages() * 3 / 4}, mem, flash)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, f.BlockBytes())
	if err := f.WriteLBA(0, buf); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadLBA(0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	world := sim.NewWorld(1)
	mem := dram.New(dram.Config{Geometry: dram.SmallGeometry(), Profile: dram.InvulnerableProfile(), Seed: 1}, world)
	flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency())
	f, err := New(Config{NumLBAs: flash.Geometry().TotalPages() * 3 / 4}, mem, flash)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, f.BlockBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.WriteLBA(LBA(i%64), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWearRetiresBlocksButDeviceSurvives(t *testing.T) {
	// Failure injection: with a tiny endurance, heavy overwrites retire
	// blocks; the FTL must route around them until capacity truly runs
	// out, and data must stay correct meanwhile.
	world := sim.NewWorld(1)
	mem := dram.New(dram.Config{Geometry: dram.SmallGeometry(), Profile: dram.InvulnerableProfile(), Seed: 1}, world)
	flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency(), nand.WithEndurance(40))
	f, err := New(Config{NumLBAs: flash.Geometry().TotalPages() / 2}, mem, flash)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	writes := 0
	for i := 0; i < 200000 && lastErr == nil; i++ {
		lba := LBA(i % 64)
		lastErr = f.WriteLBA(lba, block(f, byte(i)))
		if lastErr == nil {
			writes++
		}
	}
	if flash.Stats().BadBlocks == 0 {
		t.Fatal("endurance never retired a block")
	}
	// The device must have survived well past the first retirement.
	if writes < 10000 {
		t.Fatalf("device failed after only %d writes", writes)
	}
	// Whatever was last written must read back correctly.
	got := make([]byte, f.BlockBytes())
	for lba := LBA(0); lba < 64; lba++ {
		if _, err := f.ReadLBA(lba, got); err != nil {
			t.Fatalf("read after wear-out campaign: %v", err)
		}
	}
}

func TestGCSkipsBadBlocks(t *testing.T) {
	world := sim.NewWorld(1)
	mem := dram.New(dram.Config{Geometry: dram.SmallGeometry(), Profile: dram.InvulnerableProfile(), Seed: 1}, world)
	flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency(), nand.WithEndurance(1))
	f, err := New(Config{NumLBAs: flash.Geometry().TotalPages() / 2}, mem, flash)
	if err != nil {
		t.Fatal(err)
	}
	// Every erased block immediately goes bad (endurance 1): the device
	// keeps writing until fresh blocks are exhausted, then fails loudly
	// rather than corrupting.
	var lastErr error
	for i := 0; i < 100000 && lastErr == nil; i++ {
		lastErr = f.WriteLBA(LBA(i%32), block(f, byte(i)))
	}
	if lastErr == nil {
		t.Fatal("device should eventually fail with endurance 1")
	}
}

func TestModelBasedRandomOps(t *testing.T) {
	// Random write/read/trim sequence cross-checked against a shadow
	// map, with enough volume that GC churns underneath.
	f, _, _, _ := testEnv(t, nil)
	rng := sim.NewRNG(0xF71)
	shadow := make(map[LBA]byte)
	span := f.NumLBAs() / 4 // concentrate to force overwrites + GC
	buf := make([]byte, f.BlockBytes())
	const ops = 30000
	for step := 0; step < ops; step++ {
		lba := LBA(rng.Uint64n(span))
		switch rng.Intn(10) {
		case 0: // trim
			if err := f.Trim(lba); err != nil {
				t.Fatalf("step %d trim: %v", step, err)
			}
			delete(shadow, lba)
		case 1, 2, 3, 4, 5: // write
			stamp := byte(rng.Uint64())
			if err := f.WriteLBA(lba, block(f, stamp)); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			shadow[lba] = stamp
		default: // read
			mapped, err := f.ReadLBA(lba, buf)
			if err != nil {
				t.Fatalf("step %d read: %v", step, err)
			}
			want, ok := shadow[lba]
			if mapped != ok {
				t.Fatalf("step %d: lba %d mapped=%v, want %v", step, lba, mapped, ok)
			}
			if ok && (buf[0] != want || buf[4095] != want) {
				t.Fatalf("step %d: lba %d = %#x, want %#x", step, lba, buf[0], want)
			}
			if !ok && buf[0] != 0 {
				t.Fatalf("step %d: unmapped lba %d returned data", step, lba)
			}
		}
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("workload never triggered GC; model check too weak")
	}
	// Full final sweep.
	for lba, want := range shadow {
		mapped, err := f.ReadLBA(lba, buf)
		if err != nil || !mapped {
			t.Fatalf("final read %d: mapped=%v err=%v", lba, mapped, err)
		}
		if buf[0] != want {
			t.Fatalf("final read %d = %#x, want %#x", lba, buf[0], want)
		}
	}
}

func TestModelBasedHashedL2P(t *testing.T) {
	f, _, _, _ := testEnv(t, func(c *Config) { c.Hashed = true; c.HashKey = 0xAB })
	rng := sim.NewRNG(0xF72)
	shadow := make(map[LBA]byte)
	span := f.NumLBAs() / 4
	buf := make([]byte, f.BlockBytes())
	for step := 0; step < 8000; step++ {
		lba := LBA(rng.Uint64n(span))
		if rng.Bool() {
			stamp := byte(rng.Uint64())
			if err := f.WriteLBA(lba, block(f, stamp)); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			shadow[lba] = stamp
		} else {
			mapped, err := f.ReadLBA(lba, buf)
			if err != nil {
				t.Fatalf("step %d read: %v", step, err)
			}
			want, ok := shadow[lba]
			if mapped != ok || (ok && buf[0] != want) {
				t.Fatalf("step %d: hashed lba %d mismatch", step, lba)
			}
		}
	}
}

// TestReadCountersRepeat checks the FTL's share of next-event hammering:
// k more repetitions of a read stream add k times one repetition's
// counter growth, and only the cacheless linear layout without a fault
// injector is repeatable.
func TestReadCountersRepeat(t *testing.T) {
	f, _, _, _ := testEnv(t, nil)
	if !f.Repeatable() {
		t.Fatal("default FTL not repeatable")
	}
	if err := f.WriteLBA(3, block(f, 1)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.BlockBytes())
	stream := func() {
		for _, lba := range []LBA{3, 4, 5} {
			if _, err := f.ReadLBA(lba, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := f.ReadCounters()
	stream()
	once := f.ReadCounters().Sub(before)
	if once != (ReadCounters{HostReads: 3, L2PLookups: 3, ReadsUnmapped: 2}) {
		t.Fatalf("one repetition grew the counters by %+v", once)
	}
	f.AddReads(once, 4)
	stream()
	if got, want := f.ReadCounters().Sub(before), (ReadCounters{HostReads: 18, L2PLookups: 18, ReadsUnmapped: 12}); got != want {
		t.Errorf("after 4 added and 2 run: %+v, want %+v", got, want)
	}
	for name, mutate := range map[string]func(*Config){
		"cache":  func(c *Config) { c.Cache = CacheConfig{Enabled: true, Lines: 64} },
		"hashed": func(c *Config) { c.Hashed = true; c.HashKey = 7 },
	} {
		if g, _, _, _ := testEnv(t, mutate); g.Repeatable() {
			t.Errorf("%s FTL reported repeatable", name)
		}
	}
}

// TestLoadRejectsOutOfRangeOwner checks the reverse-map validation: a
// snapshot whose reverse map names an LBA beyond the FTL's capacity is
// rejected rather than truncated into the 32-bit map.
func TestLoadRejectsOutOfRangeOwner(t *testing.T) {
	f, _, _, _ := testEnv(t, nil)
	g, _, _, _ := testEnv(t, nil)
	load := func() error {
		w := snapshot.NewWriter()
		f.SaveTo(w)
		snap, err := snapshot.Decode(snapBytes(w))
		if err != nil {
			t.Fatal(err)
		}
		return g.LoadFrom(snap)
	}
	if err := load(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	f.reverse[0] = uint32(f.cfg.NumLBAs)
	if err := load(); err == nil {
		t.Fatal("snapshot with an out-of-range owner loaded")
	}
}

// snapBytes assembles a snapshot stream in memory.
func snapBytes(w *snapshot.Writer) []byte {
	var b bytes.Buffer
	w.WriteTo(&b)
	return b.Bytes()
}
