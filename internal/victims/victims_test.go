package victims

import (
	"errors"
	"testing"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
)

const testSeed = 0x51C71A5

// smallDevice builds a compact two-tenant device with no organic flips:
// victim behaviour is probed with aimed entry flips, not weak cells.
func smallDevice(t *testing.T) *fleet.BuiltDevice {
	t.Helper()
	dcfg := dram.Config{
		Geometry: dram.Geometry{
			Channels: 1, DIMMs: 1, Ranks: 1,
			Banks: 4, RowsPerBank: 1 << 12, RowBytes: 1 << 10,
		},
		Timing:  dram.DefaultTiming(),
		Profile: dram.InvulnerableProfile(),
		Mapping: dram.MapperConfig{XorBank: true},
	}
	geom := nand.Geometry{
		Channels:      2,
		DiesPerChan:   2,
		PlanesPerDie:  2,
		BlocksPerPlan: 16,
		PagesPerBlock: 64,
		PageBytes:     4096,
	}
	bd, err := fleet.DeviceSpec{
		Tenants: 2,
		Amplify: 1,
		DRAM:    &dcfg,
		Flash:   &geom,
	}.Build(testSeed, nil)
	if err != nil {
		t.Fatalf("build device: %v", err)
	}
	return bd
}

func victimNS(t *testing.T, dev *nvme.Device) *nvme.Namespace {
	t.Helper()
	ns, ok := dev.NamespaceByID(2)
	if !ok {
		t.Fatal("no namespace 2")
	}
	return ns
}

// flipEntry simulates a landed rowhammer flip: XOR bit 4 of the first
// byte of lba's L2P entry directly in controller DRAM (the same bit the
// faults.KindDRAMBitFlip rule targets), redirecting the translation by
// 16 physical pages.
func flipEntry(t *testing.T, dev *nvme.Device, ns *nvme.Namespace, lba ftl.LBA) {
	t.Helper()
	addr, err := dev.EntryAddrOf(ns, lba)
	if err != nil {
		t.Fatalf("entry addr of %d: %v", lba, err)
	}
	var b [4]byte
	if err := dev.DRAM().Read(addr, b[:]); err != nil {
		t.Fatalf("dram read: %v", err)
	}
	b[0] ^= 1 << 4
	if err := dev.DRAM().Write(addr, b[:]); err != nil {
		t.Fatalf("dram write: %v", err)
	}
}

func TestFSVictimCleanRun(t *testing.T) {
	bd := smallDevice(t)
	v := &FSVictim{
		Dev: bd.Device, NS: victimNS(t, bd.Device),
		Journal: true, MetaChecksum: true,
	}
	if err := v.Arm(nil); err != nil {
		t.Fatalf("arm: %v", err)
	}
	rep, err := v.Check()
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if rep.Checked != probeFiles || rep.Corrupted != 0 || rep.Remapped != 0 {
		t.Fatalf("clean run report = %+v", rep)
	}
	det := v.Detail()
	if det.Clean != probeFiles || det.FsckProblems != 0 {
		t.Fatalf("clean run detail = %+v", det)
	}
}

func TestFSVictimDataFlipIsSilentEvenHardened(t *testing.T) {
	bd := smallDevice(t)
	v := &FSVictim{
		Dev: bd.Device, NS: victimNS(t, bd.Device),
		Journal: true, MetaChecksum: true,
	}
	if err := v.Arm(nil); err != nil {
		t.Fatalf("arm: %v", err)
	}
	lba, err := v.DataLBA()
	if err != nil {
		t.Fatal(err)
	}
	flipEntry(t, bd.Device, v.NS, lba)
	rep, err := v.Check()
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if rep.Corrupted == 0 {
		t.Fatalf("data-entry flip went unnoticed entirely: %+v / %+v", rep, v.Detail())
	}
	// The §5 point: no metadata checksum covers a data-block
	// translation, so the corruption must not surface as a checksum
	// detection on the flipped file.
	det := v.Detail()
	if det.Silent == 0 {
		t.Fatalf("expected silent data corruption, got %+v", det)
	}
}

func TestFSVictimItableFlipDetectedWhenHardened(t *testing.T) {
	bd := smallDevice(t)
	v := &FSVictim{
		Dev: bd.Device, NS: victimNS(t, bd.Device),
		Journal: true, MetaChecksum: true,
	}
	if err := v.Arm(nil); err != nil {
		t.Fatalf("arm: %v", err)
	}
	lba, err := v.MetadataLBA()
	if err != nil {
		t.Fatal(err)
	}
	flipEntry(t, bd.Device, v.NS, lba)
	rep, err := v.Check()
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	det := v.Detail()
	if det.Detected == 0 && !det.FsckChecksumOnly {
		t.Fatalf("hardened FS missed an inode-table flip: rep=%+v det=%+v", rep, det)
	}
	if det.Silent != 0 {
		t.Fatalf("inode-table flip produced silent corruption despite checksums: %+v", det)
	}
}

func TestFSVictimItableFlipSilentWhenPlain(t *testing.T) {
	bd := smallDevice(t)
	v := &FSVictim{Dev: bd.Device, NS: victimNS(t, bd.Device)}
	if err := v.Arm(nil); err != nil {
		t.Fatalf("arm: %v", err)
	}
	lba, err := v.MetadataLBA()
	if err != nil {
		t.Fatal(err)
	}
	flipEntry(t, bd.Device, v.NS, lba)
	rep, err := v.Check()
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	det := v.Detail()
	if rep.Corrupted == 0 {
		t.Fatalf("plain-FS itable flip went unnoticed entirely: %+v", det)
	}
	if det.Detected != 0 {
		t.Fatalf("plain FS has no inode checksums but reported a detection: %+v", det)
	}
}

func TestKVStoreRoundTrip(t *testing.T) {
	bd := smallDevice(t)
	s := NewKVStore(bd.Device, victimNS(t, bd.Device))
	val := []byte("hello world")
	if err := s.Put(42, val); err != nil {
		t.Fatalf("put: %v", err)
	}
	dst := make([]byte, 64)
	n, err := s.Get(42, dst)
	if err != nil || string(dst[:n]) != "hello world" {
		t.Fatalf("get = %q, %v", dst[:n], err)
	}
	// Overwrite appends a new record and the index follows it.
	if err := s.Put(42, []byte("v2")); err != nil {
		t.Fatalf("put v2: %v", err)
	}
	n, err = s.Get(42, dst)
	if err != nil || string(dst[:n]) != "v2" {
		t.Fatalf("get v2 = %q, %v", dst[:n], err)
	}
	if _, err := s.Get(7, dst); !errors.Is(err, ErrKeyLost) {
		t.Fatalf("missing key error = %v", err)
	}
}

func TestKVVictimFlipDetectedNeverSilent(t *testing.T) {
	bd := smallDevice(t)
	v := &KVVictim{Dev: bd.Device, NS: victimNS(t, bd.Device)}
	if err := v.Arm(nil); err != nil {
		t.Fatalf("arm: %v", err)
	}
	rep, err := v.Check()
	if err != nil || rep.Corrupted != 0 {
		t.Fatalf("clean check = %+v, %v", rep, err)
	}
	lba, ok := v.store.RecordLBA(kvKey(0))
	if !ok {
		t.Fatal("key 0 has no record")
	}
	flipEntry(t, bd.Device, v.NS, lba)
	rep, err = v.Check()
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	det := v.Detail()
	if rep.Corrupted == 0 {
		t.Fatalf("record-entry flip went unnoticed: %+v", det)
	}
	if det.Silent != 0 {
		t.Fatalf("KV framing let a flip through silently: %+v", det)
	}
	if det.Lost+det.Misdirected+det.DeviceErrors == 0 {
		t.Fatalf("no detected outcome recorded: %+v", det)
	}
}

// TestKVGetZeroAlloc pins the zero-alloc contract: steady-state Get —
// cache hits and misses alike — performs no heap allocation.
func TestKVGetZeroAlloc(t *testing.T) {
	bd := smallDevice(t)
	s := NewKVStore(bd.Device, victimNS(t, bd.Device))
	const keys = 100 // > kvCacheWays, so the loop exercises misses too
	val := make([]byte, 64)
	for k := uint64(0); k < keys; k++ {
		for j := range val {
			val[j] = byte(k + uint64(j))
		}
		if err := s.Put(k, val); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	dst := make([]byte, 64)
	allocs := testing.AllocsPerRun(50, func() {
		for k := uint64(0); k < keys; k++ {
			if _, err := s.Get(k, dst); err != nil {
				t.Fatalf("get %d: %v", k, err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("KVStore.Get allocates %.1f times per %d-key sweep, want 0", allocs, keys)
	}
}

// nopHammer satisfies attack.Hammerer without touching the device, so
// GC tests isolate the churn machinery.
type nopHammer struct{}

func (nopHammer) Hammer(attack.Binding, attack.Pattern) error { return nil }

// gcBinding fabricates a binding whose victim lines sit at a fixed spot
// in the victim namespace (GCVictim only consumes VictimGlobalLBAs).
func gcBinding(ns *nvme.Namespace) attack.Binding {
	return attack.Binding{
		VictimGlobalLBAs: []ftl.LBA{ns.StartLBA + 64, ns.StartLBA + 128},
	}
}

func TestGCVictimChurnRelocatesAndResets(t *testing.T) {
	bd := smallDevice(t)
	dev := bd.Device
	ns := victimNS(t, dev)
	// Pre-fill tenant 1 completely with static (never-invalidated)
	// data: when churn later depletes the free pool, the half-dead
	// canary blocks are the emptiest reclaim candidates, so GC must
	// relocate the surviving canaries rather than just erase dead
	// churn blocks.
	ns1, ok := dev.NamespaceByID(1)
	if !ok {
		t.Fatal("no namespace 1")
	}
	fill := make([]byte, dev.BlockBytes())
	for lba := ftl.LBA(0); uint64(lba) < ns1.NumLBAs; lba++ {
		if err := dev.Write(ns1, lba, fill, nvme.PathDirect); err != nil {
			t.Fatalf("prefill: %v", err)
		}
	}
	v := &GCVictim{Dev: dev, NS: ns}
	if err := v.Arm([]attack.Binding{gcBinding(ns)}); err != nil {
		t.Fatalf("arm: %v", err)
	}
	if len(v.Watched()) != 32 {
		t.Fatalf("watched %d canaries, want 32", len(v.Watched()))
	}
	// Flip one watched entry, then prime it (the victim touching its
	// data makes the flip observable/persistent) and churn until GC
	// relocates the canary blocks.
	target := v.Watched()[3]
	flipEntry(t, dev, ns, target)
	ch := &ChurnHammerer{
		Inner:   nopHammer{},
		Dev:     dev,
		ChurnNS: ns,
		Rounds:  4, Writes: 1200, Span: 3500,
		PrimeNS: ns,
		Prime:   []ftl.LBA{target},
	}
	if err := ch.Hammer(attack.Binding{}, attack.Pattern{Spec: "single", Sides: 1, Iterations: 8}); err != nil {
		t.Fatalf("churn: %v", err)
	}
	if dev.FTL().Stats().GCRuns == 0 {
		t.Fatal("churn never triggered GC; test workload too small")
	}
	rep, err := v.Check()
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	det := v.Detail()
	if det.GCRuns == 0 || det.PagesMoved == 0 {
		t.Fatalf("GC activity not observed by victim: %+v", det)
	}
	if det.Relocated == 0 {
		t.Fatalf("GC ran but no canary relocated (exposure never reset): %+v rep=%+v", det, rep)
	}
	// The flipped entry must have been rewritten by GC relocation: the
	// canary reads back intact from a new page — exposure RESET.
	if rep.Corrupted != 0 {
		t.Fatalf("flip survived GC relocation: %+v rep=%+v", det, rep)
	}
}

func TestGCVictimFlipPersistsWithoutChurn(t *testing.T) {
	bd := smallDevice(t)
	dev := bd.Device
	ns := victimNS(t, dev)
	v := &GCVictim{Dev: dev, NS: ns, NoInterleave: true}
	if err := v.Arm([]attack.Binding{gcBinding(ns)}); err != nil {
		t.Fatalf("arm: %v", err)
	}
	target := v.Watched()[3]
	flipEntry(t, dev, ns, target)
	rep, err := v.Check()
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	det := v.Detail()
	if det.GCRuns != 0 {
		t.Fatalf("quiescent device ran GC: %+v", det)
	}
	if rep.Corrupted == 0 {
		t.Fatalf("flip had no effect without GC: %+v rep=%+v", det, rep)
	}
}
