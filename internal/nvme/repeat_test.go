package nvme

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/sim"
)

// repeatCase is one configuration of the next-event differential test: a
// double-sided hammer on a small, fast-flipping device with a short
// refresh window, so a few thousand cycles cross refresh boundaries,
// weak-cell samplings and flips.
type repeatCase struct {
	seed    uint64
	closed  bool   // closed-row policy
	amplify int    // HammersPerIO
	blast2  uint64 // Blast2Weight
	timing  bool   // tRC/tFAW on
	perSide int    // LBAs per aggressor side
	mapped  bool   // write the aggressor LBAs before hammering
	// victim adds a read of an LBA whose entry sits in the victim row and
	// takes a flip during the call: the scout run picks it.
	victim       bool
	victimMapped bool // write the victim LBA first
	stall        bool // leave tRC/tFAW back-pressure pending at the start
	// short divides the refresh window and HCfirst by 4, so every event
	// arrives in a quarter of the cycles (the fuzz target's device).
	short  bool
	cycles int
}

func (c repeatCase) String() string {
	return fmt.Sprintf("seed=%d closed=%v x%d blast2=%d timing=%v side=%d mapped=%v victim=%v/%v stall=%v short=%v cycles=%d",
		c.seed, c.closed, c.amplify, c.blast2, c.timing, c.perSide, c.mapped, c.victim, c.victimMapped, c.stall, c.short, c.cycles)
}

// repeatVictimRow is the victim row of every case; its aggressors are
// rows 1 and 3 of the case's bank, all inside the L2P table.
const repeatVictimRow = 2

// repeatDevice builds one twin: SmallGeometry DRAM (64 KiB per row index
// across 8 banks) under a 61,440-entry linear L2P, so table rows 0-3 exist
// in every bank.
func repeatDevice(t testing.TB, c repeatCase) (*Device, *Namespace) {
	t.Helper()
	world := sim.NewWorld(c.seed)
	window, hcFirst := 2*sim.Millisecond, uint64(2000)
	if c.short {
		window, hcFirst = window/4, hcFirst/4
	}
	dcfg := dram.Config{
		Geometry:      dram.SmallGeometry(),
		Profile:       dram.Profile{Name: "fast-flipping", HCfirst: hcFirst, ThresholdSigma: 0.1, WeakCellsPerRow: 4},
		RefreshWindow: window,
		Blast2Weight:  c.blast2,
		Seed:          c.seed,
	}
	if c.closed {
		dcfg.Policy = dram.ClosedRow
	}
	if c.timing {
		dcfg.Timing = dram.DefaultTiming()
	}
	mem := dram.New(dcfg, world)
	flash := nand.New(nand.Geometry{
		Channels: 2, DiesPerChan: 2, PlanesPerDie: 1,
		BlocksPerPlan: 64, PagesPerBlock: 256, PageBytes: 4096,
	}, nand.DefaultLatency())
	f, err := ftl.New(ftl.Config{NumLBAs: flash.Geometry().TotalPages() * 15 / 16, HammersPerIO: c.amplify}, mem, flash)
	if err != nil {
		t.Fatal(err)
	}
	dev := New(Config{}, f, mem, flash, world)
	ns, err := dev.AddNamespace(f.NumLBAs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return dev, ns
}

// rowLBA returns the i-th LBA (i < 1024) whose entry sits in the given
// bank and row: entry i/64 of the row's line i%64. The first 64 lines of
// rows 0-3 lie inside the table.
func rowLBA(dev *Device, bank, row, i int) ftl.LBA {
	addr := dev.DRAM().Mapper().Unmap(dram.Location{Bank: bank, Row: row, Col: i % 64 * 64})
	return ftl.LBA((addr-dev.FTL().L2PRegion().Base)/ftl.EntryBytes) + ftl.LBA(i/64)
}

// repeatStream prepares a twin for the case and returns its read cycle:
// the two sides interleaved, plus the victim LBA when set.
func repeatStream(t testing.TB, dev *Device, ns *Namespace, c repeatCase, victim ftl.LBA) []ftl.LBA {
	t.Helper()
	bank := int(c.seed % 8)
	var lbas []ftl.LBA
	for i := 0; i < c.perSide; i++ {
		lbas = append(lbas, rowLBA(dev, bank, repeatVictimRow-1, i), rowLBA(dev, bank, repeatVictimRow+1, i))
	}
	buf := make([]byte, dev.BlockBytes())
	if c.mapped {
		for i, lba := range lbas {
			buf[0] = byte(i)
			if err := dev.Write(ns, lba, buf, PathDirect); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.victim {
		if c.victimMapped {
			if err := dev.Write(ns, victim, buf, PathDirect); err != nil {
				t.Fatal(err)
			}
		}
		lbas = append(lbas, victim)
	}
	if c.stall {
		// Back-to-back activations outside any command leave tRC/tFAW
		// back-pressure for the first command to drain.
		for r := 0; r < 6; r++ {
			dev.DRAM().Activate(dev.DRAM().Mapper().Unmap(dram.Location{Bank: bank, Row: 600 + r}))
		}
	}
	return lbas
}

// victimLBA runs the case without a victim read on a scout twin and
// returns an LBA whose entry took a flip in the victim row.
func victimLBA(t testing.TB, c repeatCase) ftl.LBA {
	t.Helper()
	scout := c
	scout.victim = false
	dev, ns := repeatDevice(t, scout)
	lbas := repeatStream(t, dev, ns, scout, 0)
	if err := perCommand(dev, ns, lbas, c.cycles, make([]byte, dev.BlockBytes())); err != nil {
		t.Fatal(err)
	}
	region := dev.FTL().L2PRegion()
	for _, f := range dev.DRAM().Flips() {
		if f.Row == repeatVictimRow && region.Contains(f.PhysAddr) {
			return ftl.LBA((f.PhysAddr - region.Base) / ftl.EntryBytes)
		}
	}
	t.Fatalf("%v: scout saw no flip in the victim row's entries", scout)
	return 0
}

// perCommand is the reference: the per-command loop RepeatReads must
// reproduce exactly.
func perCommand(d *Device, ns *Namespace, lbas []ftl.LBA, cycles int, buf []byte) error {
	for c := 0; c < cycles; c++ {
		for _, lba := range lbas {
			if _, err := d.Read(ns, lba, buf, PathDirect); err != nil {
				return err
			}
		}
	}
	return nil
}

// runTwins runs the case on twin devices, RepeatReads on one and the
// per-command loop on the other, and fails on any observable difference.
// It returns the fast twin and its error.
func runTwins(t testing.TB, c repeatCase) (*Device, error) {
	t.Helper()
	var victim ftl.LBA
	if c.victim {
		victim = victimLBA(t, c)
	}
	fast, fastNS := repeatDevice(t, c)
	ref, refNS := repeatDevice(t, c)
	lbas := repeatStream(t, fast, fastNS, c, victim)
	repeatStream(t, ref, refNS, c, victim)
	fastBuf, refBuf := make([]byte, fast.BlockBytes()), make([]byte, ref.BlockBytes())
	fastErr := fast.RepeatReads(fastNS, lbas, PathDirect, c.cycles, fastBuf)
	refErr := perCommand(ref, refNS, lbas, c.cycles, refBuf)
	if fmt.Sprint(fastErr) != fmt.Sprint(refErr) {
		t.Fatalf("%v: error %v, per-command loop %v", c, fastErr, refErr)
	}
	if got, want := fast.Clock().Now(), ref.Clock().Now(); got != want {
		t.Errorf("%v: clock %d, per-command loop %d", c, got, want)
	}
	if got, want := fastNS.Stats(), refNS.Stats(); got != want {
		t.Errorf("%v: namespace stats %+v, per-command loop %+v", c, got, want)
	}
	if got, want := fast.DRAM().Flips(), ref.DRAM().Flips(); !reflect.DeepEqual(got, want) {
		t.Errorf("%v: %d flips, per-command loop %d (first difference decides)", c, len(got), len(want))
	}
	if !reflect.DeepEqual(fastBuf, refBuf) {
		t.Errorf("%v: read buffer differs", c)
	}
	// Equal checkpoint bytes imply equal StateHashes, without hashing.
	if !bytes.Equal(fast.checkpoint().Bytes(), ref.checkpoint().Bytes()) {
		t.Errorf("%v: StateHash %#x, per-command loop %#x", c, fast.StateHash(), ref.StateHash())
	}
	return fast, fastErr
}

// TestRepeatReadsMatchesPerCommandLoop is the next-event path's
// equivalence contract: on twin devices, RepeatReads and the per-command
// loop leave the same StateHash, clock, namespace counters, flip log and
// read buffer, and fail with the same error at the same read. The matrix
// covers trimmed and mapped aggressors, 128-LBA sides, open and closed
// rows, x1 and x5 amplification, half-double coupling, timing on and off,
// a victim-row entry whose flip changes the read path mid-call, and
// budgets that are not a multiple of the period or are shorter than the
// warm-up.
func TestRepeatReadsMatchesPerCommandLoop(t *testing.T) {
	base := repeatCase{seed: 1, amplify: 1, perSide: 1, timing: true, cycles: 20000}
	with := func(f func(*repeatCase)) repeatCase {
		c := base
		f(&c)
		return c
	}
	cases := map[string]repeatCase{
		"trimmed":       base,
		"x5-period2":    with(func(c *repeatCase) { c.amplify = 5; c.cycles = 12001 }),
		"x5-blast2":     with(func(c *repeatCase) { c.seed = 2; c.amplify = 5; c.blast2 = 2 }),
		"mapped":        with(func(c *repeatCase) { c.seed = 3; c.mapped = true; c.amplify = 5 }),
		"no-timing":     with(func(c *repeatCase) { c.seed = 4; c.timing = false; c.cycles = 20003 }),
		"closed-row":    with(func(c *repeatCase) { c.seed = 5; c.closed = true }),
		"closed-x5":     with(func(c *repeatCase) { c.seed = 6; c.closed = true; c.amplify = 5; c.blast2 = 2; c.timing = false }),
		"sides128":      with(func(c *repeatCase) { c.seed = 7; c.perSide = 128; c.amplify = 5; c.cycles = 301 }),
		"sides128-map":  with(func(c *repeatCase) { c.seed = 8; c.perSide = 128; c.mapped = true; c.cycles = 257 }),
		"victim-trim":   with(func(c *repeatCase) { c.seed = 9; c.victim = true; c.amplify = 5 }),
		"victim-mapped": with(func(c *repeatCase) { c.seed = 10; c.victim = true; c.victimMapped = true; c.amplify = 5 }),
		"stall":         with(func(c *repeatCase) { c.seed = 11; c.stall = true; c.amplify = 5 }),
		"short":         with(func(c *repeatCase) { c.seed = 12; c.cycles = 3 }),
		"warm-up":       with(func(c *repeatCase) { c.seed = 13; c.amplify = 5; c.cycles = 7 }),
	}
	for name, c := range cases {
		c := c
		t.Run(name, func(t *testing.T) {
			dev, err := runTwins(t, c)
			if !c.victim && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if c.victim {
				var cm *ftl.CorruptMappingError
				if !c.victimMapped && !errors.As(err, &cm) {
					t.Errorf("victim entry flip did not end the call with a corrupt mapping: %v", err)
				}
				if c.victimMapped && dev.FTL().Stats().ReadsUnmapped+dev.flash.Stats().ReadErased == 0 && err == nil {
					t.Errorf("victim entry flip did not change the mapped read's path")
				}
			}
			// The fast path must actually skip: a long call runs only a
			// few exact cycles around each event.
			if c.cycles >= 10000 && dev.repeat.n*4 > c.cycles {
				t.Errorf("ran %d of %d cycles exactly; the fast path never engaged", dev.repeat.n, c.cycles)
			}
		})
	}
}

// TestRepeatReadsIneligibleRunsPerCommand checks that a device whose
// command path keeps state (here a recorder) takes the per-command loop
// and never touches the cycle history.
func TestRepeatReadsIneligibleRunsPerCommand(t *testing.T) {
	c := repeatCase{seed: 1, amplify: 1, perSide: 1, timing: true, cycles: 2000}
	dev, ns := repeatDevice(t, c)
	var n int
	dev.SetRecorder(func(CommandRecord) { n++ })
	lbas := repeatStream(t, dev, ns, c, 0)
	if err := dev.RepeatReads(ns, lbas, PathDirect, c.cycles, make([]byte, dev.BlockBytes())); err != nil {
		t.Fatal(err)
	}
	if n != c.cycles*len(lbas) || dev.repeat != nil {
		t.Errorf("recorded %d commands (want %d), cycle history %v", n, c.cycles*len(lbas), dev.repeat != nil)
	}
	// A malformed buffer is reported at the first read, as by Read.
	if err := dev.RepeatReads(ns, lbas, PathDirect, c.cycles, make([]byte, 7)); !errors.Is(err, ftl.ErrUnaligned) {
		t.Errorf("short buffer: %v, want ErrUnaligned", err)
	}
}

// FuzzRepeatReads drives the differential contract with fuzzed device
// shapes, seeds, stream lengths and budgets. Its device has the short
// refresh window, so budgets of up to 1000 cycles cross refresh
// boundaries and weak-cell thresholds as often as 4000 cycles do on the
// matrix's device, in a quarter of the time.
func FuzzRepeatReads(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint16(750))
	f.Add(uint64(2), uint8(0b10110), uint8(3), uint16(300))
	f.Add(uint64(3), uint8(0b01001), uint8(2), uint16(4))
	f.Fuzz(func(t *testing.T, seed uint64, shape, perSide uint8, cycles uint16) {
		c := repeatCase{
			seed:    seed,
			closed:  shape&1 != 0,
			amplify: 1 + 4*int(shape>>1&1),
			blast2:  2 * uint64(shape>>2&1),
			timing:  shape&8 == 0,
			mapped:  shape&16 != 0,
			stall:   shape&32 != 0,
			perSide: 1 + int(perSide%8),
			short:   true,
			cycles:  int(cycles % 1000),
		}
		runTwins(t, c)
	})
}
