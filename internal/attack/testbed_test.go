package attack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/ext4"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/guard"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
)

// fastConfig builds a scaled-down, highly vulnerable testbed so the
// integration tests run in milliseconds-to-seconds: a 512 MiB SSD, a DRAM
// profile that flips after 2000 disturbances, and a dense weak-cell
// population.
func fastConfig(mutate func(*cloud.Config)) cloud.Config {
	cfg := cloud.Config{
		Device: fleet.DeviceSpec{
			Amplify: 5,
			DRAM: &dram.Config{
				Geometry: dram.SSDGeometry(),
				Timing:   dram.DefaultTiming(),
				Profile: dram.Profile{
					Name:            "fast-weak",
					HCfirst:         24000,
					ThresholdSigma:  0.1,
					WeakCellsPerRow: 2.0,
				},
				Mapping: dram.MapperConfig{
					Twist:      dram.TwistInterleave,
					TwistGroup: 8,
					XorBank:    true,
				},
			},
			Flash: &nand.Geometry{
				Channels:      4,
				DiesPerChan:   2,
				PlanesPerDie:  2,
				BlocksPerPlan: 32,
				PagesPerBlock: 256,
				PageBytes:     4096,
			}, // 512 MiB
		},
		VictimFillBlocks: 6144,
		Seed:             0xBEEF,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

func fastTestbed(t *testing.T, mutate func(*cloud.Config)) *cloud.Testbed {
	t.Helper()
	tb, err := cloud.NewTestbed(fastConfig(mutate))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// attackerHammerer is the attacker VM's direct-path hammerer.
func attackerHammerer(tb *cloud.Testbed) *DeviceHammerer {
	return &DeviceHammerer{Dev: tb.Device, NS: tb.AttackerNS, Path: nvme.PathDirect}
}

// double is the classic double-sided pattern run for n iterations.
func double(n int) Pattern {
	p := DoublePattern()
	p.Iterations = n
	return p
}

// --- polyglot blocks ---

// parsePointerBlock decodes a block as an indirect pointer array.
func parsePointerBlock(blk []byte) []uint32 {
	out := make([]uint32, len(blk)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(blk[i*4:])
	}
	return out
}

func TestCraftPointerBlockRoundTrip(t *testing.T) {
	targets := []uint32{100, 200, 300}
	blk, err := CraftPointerBlock(targets)
	if err != nil {
		t.Fatal(err)
	}
	ptrs := parsePointerBlock(blk)
	for i, want := range targets {
		if ptrs[i] != want {
			t.Fatalf("ptr[%d] = %d, want %d", i, ptrs[i], want)
		}
	}
	if ptrs[3] != 0 {
		t.Fatal("unused slot not zero")
	}
	if _, err := CraftPointerBlock(make([]uint32, 2000)); err == nil {
		t.Fatal("oversized target list accepted")
	}
}

func TestCraftPolyglotDualNature(t *testing.T) {
	targets := []uint32{7, 8, 9}
	blk, err := CraftPolyglot(targets, cloud.PolyglotMarker, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	ptrs := parsePointerBlock(blk)
	if ptrs[0] != 7 || ptrs[2] != 9 {
		t.Fatal("polyglot lost pointer validity")
	}
	if !bytes.Contains(blk, []byte(cloud.PolyglotMarker)) {
		t.Fatal("polyglot lost payload marker")
	}
	if _, err := CraftPolyglot(make([]uint32, 600), "m", nil); err == nil {
		t.Fatal("pointer area overflow accepted")
	}
	if _, err := CraftPolyglot(nil, "m", make([]byte, 4096)); err == nil {
		t.Fatal("payload overflow accepted")
	}
}

// --- offline analysis ---

func TestAnalyzeCrossPartitionFindsPlans(t *testing.T) {
	tb := fastTestbed(t, nil)
	bindings, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{VictimNSID: tb.VictimNS.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) == 0 {
		t.Fatal("no bindings")
	}
	owner, err := tb.Device.L2POwner()
	if err != nil {
		t.Fatal(err)
	}
	region := tb.FTL.L2PRegion()
	decoys := 0
	for _, b := range bindings {
		if len(b.Sides) != 2 {
			t.Fatalf("binding has %d sides, want the natural 2", len(b.Sides))
		}
		for _, side := range b.Sides {
			if len(side) == 0 {
				t.Fatal("binding with empty aggressor side")
			}
			for _, lba := range side {
				if uint64(lba) >= tb.AttackerNS.NumLBAs {
					t.Fatalf("aggressor LBA %d outside attacker namespace", lba)
				}
			}
		}
		for _, g := range b.VictimGlobalLBAs {
			addr := region.Base + uint64(g)*ftl.EntryBytes
			if owner(addr) != tb.VictimNS.ID {
				t.Fatalf("victim LBA %d not owned by victim namespace", g)
			}
		}
		if b.HasDecoy {
			decoys++
		}
	}
	if decoys == 0 {
		t.Fatal("no binding has a decoy row")
	}
}

func TestAnalyzeSidesExtendsPlans(t *testing.T) {
	tb := fastTestbed(t, nil)
	// The fast testbed's banks hold one spare far row beyond the decoy,
	// so requesting 4 sides extends every binding to its natural max of 3.
	bindings, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{VictimNSID: tb.VictimNS.ID, Sides: 4})
	if err != nil {
		t.Fatal(err)
	}
	extended := 0
	for _, b := range bindings {
		if len(b.Sides) > 4 {
			t.Fatalf("binding extended past requested sidedness: %d", len(b.Sides))
		}
		if len(b.Sides) > 2 {
			extended++
		}
		for _, side := range b.Sides[2:] {
			if len(side) == 0 {
				t.Fatal("empty extra side")
			}
			for _, lba := range side {
				if uint64(lba) >= tb.AttackerNS.NumLBAs {
					t.Fatalf("extra-side LBA %d outside attacker namespace", lba)
				}
			}
		}
	}
	if extended == 0 {
		t.Fatal("no binding was extended past two sides")
	}
	h := attackerHammerer(tb)
	for _, b := range bindings {
		if len(b.Sides) != 3 {
			continue
		}
		// A many-sided pattern runs on an extended binding...
		pat := ManyPattern(3)
		pat.Iterations = 100
		if err := h.Hammer(b, pat); err != nil {
			t.Fatalf("many:3 on a 3-sided binding: %v", err)
		}
		// ...a pattern wider than the binding is rejected...
		wide := ManyPattern(4)
		wide.Iterations = 100
		if err := h.Hammer(b, wide); err == nil {
			t.Fatal("many:4 accepted on a 3-sided binding")
		}
		// ...and clamping it to the binding's sidedness makes it
		// runnable (the campaign's per-binding downgrade).
		if err := h.Hammer(b, wide.ClampSides(len(b.Sides))); err != nil {
			t.Fatalf("clamped many:4 on a 3-sided binding: %v", err)
		}
		break
	}
}

func TestAnalyzeFailsOnHashedL2P(t *testing.T) {
	tb := fastTestbed(t, func(c *cloud.Config) {
		c.Device.FTL = &ftl.Config{Hashed: true, HashKey: 0xD00D}
	})
	if _, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{VictimNSID: tb.VictimNS.ID}); err == nil {
		t.Fatal("offline analysis succeeded against randomized layout")
	}
}

// TestPinAndTrimLeavesBindingIntact: Sides is a slice of slices, so
// pinning must build a fresh one rather than truncate the groups it
// copied; the pinned LBAs must read as trimmed.
func TestPinAndTrimLeavesBindingIntact(t *testing.T) {
	tb := fastTestbed(t, nil)
	ns := tb.AttackerNS
	buf := make([]byte, tb.Device.BlockBytes())
	for lba := ftl.LBA(1); lba <= 5; lba++ {
		if err := tb.Device.Write(ns, lba, buf, nvme.PathDirect); err != nil {
			t.Fatal(err)
		}
	}
	b := Binding{Sides: [][]ftl.LBA{{1, 2, 3}, {4, 5}}}
	p, err := PinAndTrim(tb.Device, ns, nvme.PathDirect, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sides[0]) != 1 || p.Sides[0][0] != 1 || len(p.Sides[1]) != 1 || p.Sides[1][0] != 4 {
		t.Fatalf("pinned sides = %v", p.Sides)
	}
	if len(b.Sides[0]) != 3 || len(b.Sides[1]) != 2 {
		t.Fatalf("PinAndTrim wrote through to the original: %v", b.Sides)
	}
	for lba, wantMapped := range map[ftl.LBA]bool{1: false, 2: true, 4: false, 5: true} {
		mapped, err := tb.Device.Read(ns, lba, buf, nvme.PathDirect)
		if err != nil {
			t.Fatal(err)
		}
		if mapped != wantMapped {
			t.Errorf("LBA %d mapped = %v, want %v", lba, mapped, wantMapped)
		}
	}
}

// --- hammering ---

func TestHammerFlipsVictimRow(t *testing.T) {
	tb := fastTestbed(t, nil)
	bindings, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{VictimNSID: tb.VictimNS.ID})
	if err != nil {
		t.Fatal(err)
	}
	h := attackerHammerer(tb)
	before := tb.DRAM.Stats().Flips
	// Hammer several bindings: weak cells are sparse, some rows are clean.
	for i, b := range bindings {
		if i >= 8 {
			break
		}
		if err := h.Hammer(b, double(60000)); err != nil {
			t.Fatal(err)
		}
	}
	if tb.DRAM.Stats().Flips == before {
		t.Fatal("hammering induced no flips")
	}
	for _, ev := range tb.DRAM.Flips() {
		if ev.Row < 0 {
			t.Fatal("nonsense flip row")
		}
	}
}

func TestMeasuredRateExceedsRequired(t *testing.T) {
	tb := fastTestbed(t, nil)
	bindings, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{VictimNSID: tb.VictimNS.ID})
	if err != nil {
		t.Fatal(err)
	}
	rate, err := MeasuredRate(attackerHammerer(tb), bindings[0], 4000)
	if err != nil {
		t.Fatal(err)
	}
	if rate < RequiredRate(tb.Device) {
		t.Fatalf("direct path rate %.0f below required %.0f", rate, RequiredRate(tb.Device))
	}
}

func TestTemplateSeparatesVulnerableRows(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	tb := fastTestbed(t, func(c *cloud.Config) {
		c.Device.DRAM.Profile.WeakCellsPerRow = 0.5 // make clean rows common
		// Same-owner triples need physically contiguous same-partition
		// rows — the Figure 1 single-tenant setting, plain mapping.
		c.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
	})
	bindings, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) > 12 {
		bindings = bindings[:12]
	}
	results, err := Template(attackerHammerer(tb), bindings, double(60000))
	if err != nil {
		t.Fatal(err)
	}
	vuln, clean := 0, 0
	for _, r := range results {
		if r.Vulnerable {
			vuln++
			if r.Observation == "" {
				t.Fatal("vulnerable result without observation")
			}
		} else {
			clean++
		}
	}
	if vuln == 0 {
		t.Fatal("templating found no vulnerable rows at density 0.5")
	}
	if clean == 0 {
		t.Fatal("templating found no clean rows at density 0.5")
	}
	// Ordering: vulnerable first.
	seenClean := false
	for _, r := range results {
		if !r.Vulnerable {
			seenClean = true
		} else if seenClean {
			t.Fatal("results not ordered vulnerable-first")
		}
	}
}

func TestOneLocationHammerNeedsClosedRowPolicy(t *testing.T) {
	run := func(policy dram.RowPolicy) uint64 {
		tb := fastTestbed(t, func(c *cloud.Config) {
			c.Device.Amplify = 1
			c.Device.DRAM.Policy = policy
			c.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
		})
		bindings, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := attackerHammerer(tb)
		pat := OneLocationPattern()
		pat.Iterations = 60000
		before := tb.DRAM.Stats().Flips
		for i, b := range bindings {
			if i >= 6 {
				break
			}
			if err := h.Hammer(b, pat); err != nil {
				t.Fatal(err)
			}
		}
		return tb.DRAM.Stats().Flips - before
	}
	if flips := run(dram.OpenRow); flips != 0 {
		t.Fatalf("one-location flipped %d bits under open-row policy", flips)
	}
	if flips := run(dram.ClosedRow); flips == 0 {
		t.Fatal("one-location produced no flips under closed-row policy")
	}
}

// TestSingleSidedNeedsFarRow: the single-sided pattern alternates one
// aggressor with the binding's far (decoy) row, so it runs where the
// binding has one and is rejected where it does not.
func TestSingleSidedNeedsFarRow(t *testing.T) {
	tb := fastTestbed(t, func(c *cloud.Config) {
		c.Device.Amplify = 1
		c.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
	})
	bindings, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b *Binding
	for i := range bindings {
		if bindings[i].HasDecoy {
			b = &bindings[i]
			break
		}
	}
	if b == nil {
		t.Skip("no binding with a far row available")
	}
	h := attackerHammerer(tb)
	single := SinglePattern()
	single.Iterations = 30000
	// It must run without error; with half the disturbance it may or may
	// not flip — the dram-level asymmetry test covers the physics.
	if err := h.Hammer(*b, single); err != nil {
		t.Fatal(err)
	}
	bare := Binding{Triple: b.Triple, Sides: b.Sides}
	single.Iterations = 10
	if err := h.Hammer(bare, single); err == nil {
		t.Fatal("single-sided without a far row should fail")
	}
}

func TestCacheEvictionBypass(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	// The §5 speculation implemented: a direct-mapped FTL L2P cache
	// absorbs plain hammering, but an attacker that interleaves reads of
	// set-aliasing entries evicts the aggressor translations and flips
	// bits anyway.
	run := func(evict int) (flips uint64, observed bool) {
		tb := fastTestbed(t, func(c *cloud.Config) {
			c.Device.Amplify = 1
			c.Device.FTL = &ftl.Config{Cache: ftl.CacheConfig{Enabled: true, Lines: 1024}}
			c.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
		})
		bindings, err := Analyze(tb.Device, tb.AttackerNS, AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(bindings) > 6 {
			bindings = bindings[:6]
		}
		pat := double(60000)
		pat.CacheEvictLines = evict
		results, err := Template(attackerHammerer(tb), bindings, pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Vulnerable {
				observed = true
			}
		}
		return tb.DRAM.Stats().Flips, observed
	}
	if flips, _ := run(0); flips != 0 {
		t.Fatalf("cache absorbed nothing: %d flips without eviction", flips)
	}
	flips, observed := run(1024)
	if flips == 0 {
		t.Fatal("eviction-aware hammer produced no flips through the cache")
	}
	if !observed {
		t.Fatal("eviction-aware probing failed to observe the corruption")
	}
}

// --- spraying & scanning ---

func TestSprayerShapeMatchesPaper(t *testing.T) {
	tb := fastTestbed(t, nil)
	s := NewSprayer(tb.VictimFS, cloud.AttackerCred, "/home/attacker")
	n, err := s.Spray(20, 32, uint32(tb.VictimFS.DataStart()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("created %d files, want 20", n)
	}
	for _, sf := range s.Files() {
		f, err := tb.VictimFS.Open(sf.Path, cloud.AttackerCred, false)
		if err != nil {
			t.Fatal(err)
		}
		// Hole of 12 blocks.
		for blk := uint64(0); blk < 12; blk++ {
			phys, err := f.MapBlock(blk)
			if err != nil {
				t.Fatal(err)
			}
			if phys != 0 {
				t.Fatalf("%s: direct block %d allocated", sf.Path, blk)
			}
		}
		if sf.IndirectFSBlock == 0 {
			t.Fatal("no indirect block recorded")
		}
		// Probe block reads back as the malicious pointer array.
		buf := make([]byte, ext4.BlockSize)
		if _, err := f.ReadAt(buf, ProbeOffset); err != nil {
			t.Fatal(err)
		}
		if !matchesPointerBlock(buf, sf.Targets) {
			t.Fatal("probe block does not match crafted array")
		}
	}
	// Clean scan: no leaks without flips.
	leaks, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(leaks) != 0 {
		t.Fatalf("phantom leaks: %d", len(leaks))
	}
}

func TestScanDetectsRedirectAndDumpLeaks(t *testing.T) {
	tb := fastTestbed(t, nil)
	s := NewSprayer(tb.VictimFS, cloud.AttackerCred, "/home/attacker")
	// Target the victim's secret block explicitly.
	secret, err := tb.VictimFS.Open("/root/.ssh/id_rsa", ext4.Root, false)
	if err != nil {
		t.Fatal(err)
	}
	secretBlk, err := secret.MapBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spray(4, 8, uint32(secretBlk)); err != nil {
		t.Fatal(err)
	}
	// Simulate the useful bitflip: redirect file 0's indirect-block LBA
	// to the physical page of a sprayed malicious array — here its own
	// data block, whose pointer list starts at the secret.
	sf0 := s.Files()[0]
	f0, err := tb.VictimFS.Open(sf0.Path, cloud.AttackerCred, false)
	if err != nil {
		t.Fatal(err)
	}
	dataBlk0, err := f0.MapBlock(12)
	if err != nil {
		t.Fatal(err)
	}
	maliciousPPN := tb.FTL.PPNOf(tb.VictimNS.StartLBA + ftl.LBA(dataBlk0))
	entryAddr, err := tb.FTL.EntryAddr(tb.VictimNS.StartLBA + ftl.LBA(sf0.IndirectFSBlock))
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte{byte(maliciousPPN), byte(maliciousPPN >> 8), byte(maliciousPPN >> 16), byte(maliciousPPN >> 24)}
	if err := tb.DRAM.Write(entryAddr, raw); err != nil {
		t.Fatal(err)
	}

	leaks, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(leaks) != 1 {
		t.Fatalf("detected %d leaks, want 1", len(leaks))
	}
	dump, err := s.Dump(leaks[0], 8)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, blk := range dump {
		if bytes.Contains(blk, []byte(cloud.SecretMarker)) {
			found = true
		}
	}
	if !found {
		t.Fatal("dump through redirected indirect block did not contain the secret")
	}
}

func TestRespraySwapsFiles(t *testing.T) {
	tb := fastTestbed(t, nil)
	s := NewSprayer(tb.VictimFS, cloud.AttackerCred, "/home/attacker")
	if _, err := s.Spray(5, 4, uint32(tb.VictimFS.DataStart())); err != nil {
		t.Fatal(err)
	}
	old := s.Files()[0].Path
	if _, err := s.Respray(5, 4, uint32(tb.VictimFS.DataStart())+100); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.VictimFS.Stat(old, cloud.AttackerCred); err != ext4.ErrNotFound {
		t.Fatalf("old spray file still present: %v", err)
	}
	if len(s.Files()) != 5 {
		t.Fatalf("respray kept %d files", len(s.Files()))
	}
}

func TestSprayBlockedByForbidIndirect(t *testing.T) {
	tb := fastTestbed(t, func(c *cloud.Config) { c.ForbidIndirect = true })
	s := NewSprayer(tb.VictimFS, cloud.AttackerCred, "/home/attacker")
	if _, err := s.Spray(2, 4, uint32(tb.VictimFS.DataStart())); err == nil {
		t.Fatal("spraying succeeded under the extent-only mitigation")
	}
}

// --- end to end ---

func TestCampaignLeaksVictimData(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	// Amplification off: the x5 hack multiplies row-conflict traffic
	// and is only needed when the DRAM is barely vulnerable; this
	// profile is not. Dense spray maximizes the fraction of victim-row
	// translations the attacker controls (the paper's Fv = 25% of Cv).
	tb := fastTestbed(t, func(c *cloud.Config) { c.Device.Amplify = 1 })
	camp, err := NewCampaign(tb, CampaignConfig{
		SprayFiles:      3072,
		TargetsPerFile:  64,
		MaxCycles:       12,
		TriplesPerCycle: 8,
		Hunt:            "victim-data-block-",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("campaign: %+v", struct {
		Cycles, Leaks, Dumped int
		Flips                 uint64
		Found                 bool
	}{rep.Cycles, rep.LeaksDetected, rep.BlocksDumped, rep.FlipsInduced, rep.SecretFound})
	if rep.FlipsInduced == 0 {
		t.Fatal("campaign induced no flips")
	}
	if !rep.SecretFound {
		t.Fatal("campaign did not leak victim data")
	}
	if !strings.Contains(string(rep.SecretContent), "victim-data-block-") {
		t.Fatal("leaked content mismatch")
	}
}

// TestCampaignReportsFailedRun checks the campaign's error paths: a
// pointer fan-out no indirect block holds is rejected up front, and a run
// that fails after the polyglot fill and the first spray still reports
// the virtual time it spent.
func TestCampaignReportsFailedRun(t *testing.T) {
	tb := fastTestbed(t, nil)
	if _, err := NewCampaign(tb, CampaignConfig{TargetsPerFile: MaxPointerTargets + 1}); err == nil {
		t.Fatal("NewCampaign accepted a fan-out beyond MaxPointerTargets")
	}
	// A slot naming a side the pattern lacks fails validation at the
	// first hammer.
	bad := Pattern{Sides: 2, Slots: []Slot{{Aggressor: 2}}}
	camp, err := NewCampaign(tb, CampaignConfig{SprayFiles: 16, MaxCycles: 1, Pattern: bad})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run()
	if err == nil {
		t.Fatal("campaign with an invalid pattern succeeded")
	}
	if rep.SpraysCreated == 0 || rep.Elapsed == 0 {
		t.Fatalf("failed run reported %d spray files over %v, want both non-zero", rep.SpraysCreated, rep.Elapsed)
	}
}

func TestCampaignChurnKeepsFSConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	// With invulnerable DRAM the campaign is pure churn (spray, hammer
	// with no effect, respray): the filesystem and FTL accounting must
	// stay exactly consistent. Regression test for the GC headroom and
	// write-path ordering bugs this workload once exposed.
	tb := fastTestbed(t, func(c *cloud.Config) {
		c.Device.Amplify = 1
		c.Device.DRAM.Profile = dram.InvulnerableProfile()
	})
	camp, err := NewCampaign(tb, CampaignConfig{
		SprayFiles:      3072,
		TargetsPerFile:  64,
		MaxCycles:       4,
		Pattern:         double(64), // no flips possible; keep churn fast
		TriplesPerCycle: 4,
		Hunt:            "no-such-content-keeps-running",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlipsInduced != 0 {
		t.Fatal("invulnerable profile flipped bits")
	}
	fsck, err := tb.VictimFS.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(fsck.Problems) != 0 {
		t.Fatalf("churn campaign corrupted the filesystem: %v", fsck.Problems[:min(5, len(fsck.Problems))])
	}
}

// TestCampaignCountsIssuedReads pins HammerReads to the reads the hammer
// stage really issues: double-sided issues two per iteration, while
// one-location issues one and many:4 up to four.
func TestCampaignCountsIssuedReads(t *testing.T) {
	run := func(spec string) (reads uint64, hammered int) {
		tb := fastTestbed(t, func(c *cloud.Config) {
			c.Device.Amplify = 1
			c.Device.DRAM.Profile = dram.InvulnerableProfile()
		})
		pat, err := ParsePattern(spec)
		if err != nil {
			t.Fatal(err)
		}
		pat.Iterations = 50
		camp, err := NewCampaign(tb, CampaignConfig{
			SprayFiles:      16,
			TargetsPerFile:  8,
			MaxCycles:       1,
			Pattern:         pat,
			TriplesPerCycle: 2,
			Hunt:            "no-such-content-keeps-running",
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.HammerReads, len(camp.targetedBindings())
	}
	if reads, n := run("double"); reads != uint64(2*50*n) {
		t.Fatalf("double: HammerReads = %d, want %d", reads, 2*50*n)
	}
	if reads, n := run("one-location"); reads != uint64(50*n) {
		t.Fatalf("one-location: HammerReads = %d, want %d", reads, 50*n)
	}
	if reads, n := run("many:4"); reads <= uint64(2*50*n) || reads > uint64(4*50*n) {
		t.Fatalf("many:4: HammerReads = %d, want in (%d, %d]", reads, 2*50*n, 4*50*n)
	}
}

func TestCampaignFlipLocalityAndCollateralDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	// Under attack, flips must land overwhelmingly in victim-partition
	// translations (that is what the targeted triples sandwich). The
	// campaign must survive to completion even though flips can corrupt
	// the victim filesystem — the §3.2 "data corruption" outcome is
	// expected collateral, not an error.
	tb := fastTestbed(t, func(c *cloud.Config) { c.Device.Amplify = 1 })
	camp, err := NewCampaign(tb, CampaignConfig{
		SprayFiles:      3072,
		TargetsPerFile:  64,
		MaxCycles:       6,
		TriplesPerCycle: 8,
		Hunt:            "no-such-content-keeps-running",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlipsInduced == 0 {
		t.Fatal("no flips induced")
	}
	region := tb.FTL.L2PRegion()
	victimData := 0
	for _, ev := range tb.DRAM.Flips() {
		if !region.Contains(ev.PhysAddr) {
			continue
		}
		lba := ftl.LBA((ev.PhysAddr - region.Base) / ftl.EntryBytes)
		if lba >= tb.VictimNS.StartLBA {
			victimData++
		}
	}
	if victimData*2 < len(tb.DRAM.Flips()) {
		t.Fatalf("only %d/%d flips in victim translations", victimData, len(tb.DRAM.Flips()))
	}
	if fsck, err := tb.VictimFS.Fsck(); err == nil && len(fsck.Problems) != 0 {
		t.Logf("§3.2 collateral damage: %d filesystem inconsistencies (expected under attack)", len(fsck.Problems))
	}
}

func TestCampaignSurvivesVictimBackgroundTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	// The victim tenant keeps doing its own I/O while the attack runs:
	// skewed victim reads before and after the campaign, and flips must
	// still land.
	tb := fastTestbed(t, func(c *cloud.Config) { c.Device.Amplify = 1 })
	camp, err := NewCampaign(tb, CampaignConfig{
		SprayFiles:      1024,
		TargetsPerFile:  64,
		MaxCycles:       2,
		TriplesPerCycle: 4,
		Hunt:            "no-such-marker",
	})
	if err != nil {
		t.Fatal(err)
	}
	// A busy tenant's reads: LBAs in the front half of the partition,
	// skewed toward its start by drawing the bound first.
	rng := sim.NewRNG(11)
	half := tb.VictimNS.NumLBAs / 2
	buf := make([]byte, tb.Device.BlockBytes())
	victimRead := func() error {
		lba := ftl.LBA(rng.Uint64n(rng.Uint64n(half) + 1))
		_, err := tb.Device.Read(tb.VictimNS, lba, buf, nvme.PathHostFS)
		return err
	}
	for i := 0; i < 20000; i++ {
		if err := victimRead(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlipsInduced == 0 {
		t.Fatal("background traffic prevented all flips")
	}
	// After the attack the victim's own reads may hit corrupted
	// translations — the §3.2 data-corruption outcome becoming visible
	// to the victim. Anything else is a real failure.
	corrupt := 0
	for i := 0; i < 20000; i++ {
		if err := victimRead(); err != nil {
			var cme *ftl.CorruptMappingError
			if errors.As(err, &cme) {
				corrupt++
				continue
			}
			t.Fatalf("victim read failed with non-corruption error: %v", err)
		}
	}
	t.Logf("victim observed %d corrupt-translation read errors post-attack", corrupt)
}

func TestGuardNeutralizesCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale; skipped with -short")
	}
	// The firmware-side hammer guard (internal/guard) must detect the
	// attack signature, throttle only the attacker namespace, and keep
	// flips from accumulating — while the victim's own traffic runs
	// unthrottled.
	gcfg := guard.DefaultConfig()
	tb := fastTestbed(t, func(c *cloud.Config) {
		c.Device.Amplify = 1
		c.Device.Guard = &gcfg
	})
	camp, err := NewCampaign(tb, CampaignConfig{
		SprayFiles:      1024,
		TargetsPerFile:  64,
		MaxCycles:       4,
		TriplesPerCycle: 8,
		Hunt:            "victim-data-block-",
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SecretFound {
		t.Fatal("guarded device still leaked")
	}
	if rep.FlipsInduced != 0 {
		t.Fatalf("guarded device still flipped %d bits", rep.FlipsInduced)
	}
	g := tb.Device.Guard()
	if g.Violations(tb.AttackerNS.ID) == 0 {
		t.Fatal("guard never detected the attack")
	}
	if g.Violations(tb.VictimNS.ID) != 0 {
		t.Fatal("guard blamed the victim namespace")
	}
	if tb.AttackerNS.Stats().Throttled == 0 {
		t.Fatal("attacker namespace never throttled")
	}
	if tb.VictimNS.Stats().Throttled != 0 {
		t.Fatal("victim namespace was throttled")
	}
}
