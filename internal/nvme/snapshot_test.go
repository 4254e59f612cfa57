package nvme

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/guard"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
	"ftlhammer/internal/snapshot"
)

// snapDevice assembles a fully loaded device — ECC + L2P cache +
// amplification + faults + robustness + guard — so a checkpoint
// round-trip exercises every stateful package at once.
func snapDevice(t *testing.T, profile dram.Profile, seed uint64, reg *obs.Registry) *Device {
	t.Helper()
	world := sim.NewWorld(seed)
	world.Obs = reg
	inj := faults.New(faults.Plan{Rules: []faults.Rule{
		{Kind: faults.KindNANDRead, Every: 31},
		{Kind: faults.KindLatency, Probability: 0.05, Latency: sim.Millisecond},
		{Kind: faults.KindDropCompletion, Every: 97},
	}}, world)
	mem := dram.New(dram.Config{
		Geometry: dram.SmallGeometry(),
		Profile:  profile,
		ECC:      true,
		ECCScrub: true,
		Seed:     seed,
	}, world)
	flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency(), nand.WithFaults(inj))
	f, err := ftl.New(ftl.Config{
		NumLBAs:      flash.Geometry().TotalPages() * 3 / 4,
		HammersPerIO: 5,
		Cache:        ftl.CacheConfig{Lines: 64},
	}, mem, flash)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFaults(inj)
	dev := New(Config{Robust: DefaultRobust(), Faults: inj}, f, mem, flash, world)
	half := f.NumLBAs() / 2
	if _, err := dev.AddNamespace(half, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.AddNamespace(half, 200_000); err != nil {
		t.Fatal(err)
	}
	dev.AttachGuard(guard.New(guard.Config{RowThreshold: 64, Enforce: true}))
	return dev
}

// snapStep drives one deterministic workload command; i indexes the
// workload position. The mix covers writes, hammer-style repeated reads
// of a trimmed LBA, trims, and periodic out-of-range errors.
func snapStep(t *testing.T, dev *Device, rng *sim.RNG, i int) (string, []byte) {
	t.Helper()
	nsID := 1 + i%2
	ns, ok := dev.NamespaceByID(nsID)
	if !ok {
		t.Fatalf("no namespace %d", nsID)
	}
	cmd := Command{NS: ns, Path: PathDirect, Tag: uint64(i)}
	switch r := rng.Intn(10); {
	case r < 5:
		cmd.Op = OpRead
		// Concentrate reads on a small aggressor set so rows disturb.
		cmd.LBA = ftl.LBA(rng.Uint64n(8))
		cmd.Buf = make([]byte, dev.BlockBytes())
	case r < 8:
		cmd.Op = OpWrite
		cmd.LBA = ftl.LBA(rng.Uint64n(ns.NumLBAs))
		cmd.Buf = bytes.Repeat([]byte{byte(i)}, dev.BlockBytes())
	default:
		cmd.Op = OpTrim
		cmd.LBA = ftl.LBA(rng.Uint64n(ns.NumLBAs))
	}
	if i%23 == 22 {
		cmd.LBA = ftl.LBA(ns.NumLBAs + uint64(i)) // out of range
	}
	comp, err := dev.Do(cmd)
	if err != nil {
		t.Fatalf("step %d: %v", i, err)
	}
	errText := ""
	if comp.Err != nil {
		errText = comp.Err.Error()
	}
	var payload []byte
	if cmd.Op == OpRead && comp.Err == nil {
		payload = cmd.Buf
	}
	return errText, payload
}

// roundTripProfiles is the table the property test sweeps: every
// registered Table 1 profile plus the synthetic corner cases, by
// experiment seed sample.
func roundTripProfiles() []dram.Profile {
	ps := dram.Table1Profiles()
	ps = append(ps, dram.TestbedProfile(), dram.InvulnerableProfile(),
		dram.Profile{ // hot: flips within a short workload
			Name:            "hot (test)",
			HCfirst:         50,
			ThresholdSigma:  0.3,
			WeakCellsPerRow: 4,
		})
	return ps
}

// TestCheckpointRoundTripAllProfiles is the Save→Load→continue property:
// for every DRAM profile and seed sample, interrupting the workload at a
// checkpoint and continuing on a restored device is byte-identical —
// same outputs and completion errors, same final state hash, same
// metrics snapshot — to the uninterrupted run.
func TestCheckpointRoundTripAllProfiles(t *testing.T) {
	const nOps = 240
	seeds := []uint64{1, 0xBEEF}
	for _, profile := range roundTripProfiles() {
		for _, seed := range seeds {
			profile, seed := profile, seed
			t.Run(fmt.Sprintf("%s/seed=%d", profile.Name, seed), func(t *testing.T) {
				// Uninterrupted reference run, with metrics.
				regA := obs.NewRegistry()
				devA := snapDevice(t, profile, seed, regA)
				wlA := sim.NewRNG(seed ^ 0x60a1)
				var errsA []string
				var readsA []byte // second-half payloads only
				for i := 0; i < nOps; i++ {
					e, p := snapStep(t, devA, wlA, i)
					errsA = append(errsA, e)
					if i >= nOps/2 {
						readsA = append(readsA, p...)
					}
				}
				hashA := devA.StateHash()
				regA.Flush()

				// Interrupted run: first half, checkpoint, restore into a
				// fresh device, second half.
				devB := snapDevice(t, profile, seed, nil)
				wlB := sim.NewRNG(seed ^ 0x60a1)
				for i := 0; i < nOps/2; i++ {
					snapStep(t, devB, wlB, i)
				}
				var ckpt bytes.Buffer
				if err := devB.Checkpoint(&ckpt); err != nil {
					t.Fatal(err)
				}

				regC := obs.NewRegistry()
				devC := snapDevice(t, profile, seed, regC)
				if err := devC.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
					t.Fatal(err)
				}
				if got := devC.StateHash(); got != devB.StateHash() {
					t.Fatalf("restored state hash %#x != checkpointed %#x", got, devB.StateHash())
				}
				var errsC []string
				var readsC []byte
				for i := nOps / 2; i < nOps; i++ {
					e, p := snapStep(t, devC, wlB, i)
					errsC = append(errsC, e)
					readsC = append(readsC, p...)
				}
				hashC := devC.StateHash()
				regC.Flush()

				if !reflect.DeepEqual(errsA[nOps/2:], errsC) {
					t.Errorf("completion error texts diverge after restore:\nfull  %v\nresumed %v",
						errsA[nOps/2:], errsC)
				}
				if !bytes.Equal(readsA, readsC) {
					t.Error("read payloads diverge after restore")
				}
				if hashA != hashC {
					t.Errorf("final state hash %#x (uninterrupted) != %#x (resumed)", hashA, hashC)
				}
				if devA.FTL().Stats() != devC.FTL().Stats() {
					t.Errorf("FTL stats diverge:\nfull    %+v\nresumed %+v",
						devA.FTL().Stats(), devC.FTL().Stats())
				}
				if devA.DRAM().Stats() != devC.DRAM().Stats() {
					t.Errorf("DRAM stats diverge:\nfull    %+v\nresumed %+v",
						devA.DRAM().Stats(), devC.DRAM().Stats())
				}
				if devA.Clock().Now() != devC.Clock().Now() {
					t.Errorf("clocks diverge: %d vs %d", devA.Clock().Now(), devC.Clock().Now())
				}
				// Metrics: every counter/gauge/histogram projected at
				// Flush derives from restored state, so the resumed
				// registry snapshot must equal the uninterrupted one.
				snapA := metricLines(t, regA)
				snapC := metricLines(t, regC)
				if snapA != snapC {
					t.Errorf("metric snapshots diverge:\n%s", diffLines(snapA, snapC))
				}
			})
		}
	}
}

// diffLines reports only the lines present in one snapshot but not the
// other, keeping failure output readable.
func diffLines(a, b string) string {
	la := strings.Split(a, "\n")
	lb := strings.Split(b, "\n")
	seen := make(map[string]int, len(la))
	for _, l := range la {
		seen[l]++
	}
	var out []string
	for _, l := range lb {
		if seen[l] > 0 {
			seen[l]--
			continue
		}
		out = append(out, "+ "+l)
	}
	for _, l := range la {
		for ; seen[l] > 0; seen[l]-- {
			out = append(out, "- "+l)
		}
		delete(seen, l)
	}
	return strings.Join(out, "\n")
}

func metricLines(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Snapshot(false).WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	// The restore itself counts one snapshot.load on the resumed side;
	// everything else must match line for line.
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "snapshot_") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestRestoreRejectsConfigMismatch covers the digest gate: a checkpoint
// from one configuration must not restore into another.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	devA := snapDevice(t, dram.InvulnerableProfile(), 7, nil)
	var ckpt bytes.Buffer
	if err := devA.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	devB := snapDevice(t, dram.TestbedProfile(), 7, nil) // different profile
	var mismatch *ConfigMismatchError
	if err := devB.Restore(bytes.NewReader(ckpt.Bytes())); !errors.As(err, &mismatch) {
		t.Fatalf("Restore err = %v, want ConfigMismatchError", err)
	}
}

// TestRestoreRejectsGarbage covers the typed-error contract at the
// device level: corrupt snapshots are reported, never panic.
func TestRestoreRejectsGarbage(t *testing.T) {
	dev := snapDevice(t, dram.InvulnerableProfile(), 7, nil)
	for _, data := range [][]byte{nil, []byte("junk"), bytes.Repeat([]byte{0xFF}, 64)} {
		err := dev.Restore(bytes.NewReader(data))
		var fe *snapshot.FormatError
		var ve *snapshot.VersionError
		if !errors.Is(err, snapshot.ErrBadMagic) && !errors.As(err, &fe) && !errors.As(err, &ve) {
			t.Fatalf("Restore(%q) err = %v, want typed snapshot error", data, err)
		}
	}
	var ckpt bytes.Buffer
	if err := dev.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	data := ckpt.Bytes()
	// Truncations of a real checkpoint must error, not panic.
	for _, n := range []int{0, 8, 10, len(data) / 3, len(data) - 1} {
		err := dev.Restore(bytes.NewReader(data[:n]))
		if err == nil {
			t.Fatalf("Restore of %d/%d bytes succeeded", n, len(data))
		}
	}
}

// TestSaveLoadStandalonePerLayer round-trips each layer through a
// snapshot that holds only its own section.
func TestSaveLoadStandalonePerLayer(t *testing.T) {
	dev := snapDevice(t, dram.TestbedProfile(), 3, nil)
	rng := sim.NewRNG(9)
	for i := 0; i < 60; i++ {
		snapStep(t, dev, rng, i)
	}
	dev2 := snapDevice(t, dram.TestbedProfile(), 3, nil)
	section := func(save func(*snapshot.Writer)) *snapshot.Snapshot {
		w := snapshot.NewWriter()
		save(w)
		snap, err := snapshot.Decode(snapBytes(w))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	if err := dev2.DRAM().LoadFrom(section(dev.DRAM().SaveTo)); err != nil {
		t.Fatal(err)
	}
	if dev.DRAM().Stats() != dev2.DRAM().Stats() {
		t.Error("dram standalone round-trip lost stats")
	}
	if err := dev2.FTL().LoadFrom(section(dev.FTL().SaveTo)); err != nil {
		t.Fatal(err)
	}
	if dev.FTL().Stats() != dev2.FTL().Stats() {
		t.Error("ftl standalone round-trip lost stats")
	}
}

// snapBytes assembles a snapshot stream in memory.
func snapBytes(w *snapshot.Writer) []byte {
	var b bytes.Buffer
	w.WriteTo(&b)
	return b.Bytes()
}
