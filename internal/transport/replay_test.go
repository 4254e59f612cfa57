package transport

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/replay"
	"ftlhammer/internal/sim"
)

// newReplayDevice builds the differential-replay target: a device with a
// deterministic Every-based fault plan (media errors and dropped
// completions — no connection faults, which live outside the device and
// are invisible to a command trace) and the robustness layer armed.
func newReplayDevice(t *testing.T, seed uint64, tenants int) *nvme.Device {
	t.Helper()
	world := sim.NewWorld(seed)
	inj := faults.New(faults.Plan{Rules: []faults.Rule{
		{Kind: faults.KindNANDRead, Every: 17},
		{Kind: faults.KindDropCompletion, Every: 41},
	}}, world)
	mem := dram.New(dram.Config{
		Geometry: dram.SmallGeometry(),
		Profile:  dram.InvulnerableProfile(),
		Seed:     seed,
	}, world)
	flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency(), nand.WithFaults(inj))
	f, err := ftl.New(ftl.Config{NumLBAs: flash.Geometry().TotalPages() * 3 / 4}, mem, flash)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFaults(inj)
	dev := nvme.New(nvme.Config{Robust: nvme.DefaultRobust(), Faults: inj}, f, mem, flash, world)
	per := f.NumLBAs() / uint64(tenants)
	for i := 0; i < tenants; i++ {
		if _, err := dev.AddNamespace(per, 0); err != nil {
			t.Fatal(err)
		}
	}
	return dev
}

// TestRecordedTransportSessionReplaysInProcess is the differential-replay
// property: a multi-session networked run with faults armed, recorded at
// the device boundary, replays in-process on an identically configured
// device to the exact same end state — same state hash, same fingerprint
// (per-namespace and FTL counters, virtual clock, L2P table), and the
// same per-command completion-error texts in recorded order. The
// transport is therefore pure routing: everything that happened is in
// the trace.
func TestRecordedTransportSessionReplaysInProcess(t *testing.T) {
	const (
		seed      = 424242
		tenants   = 2
		batchSize = 8
		opsPerSes = 200
	)

	remoteDev := newReplayDevice(t, seed, tenants)
	blockBytes := remoteDev.BlockBytes()
	numLBAs := remoteDev.Namespaces()[0].NumLBAs

	var traceBuf bytes.Buffer
	rec := replay.NewRecorder(&traceBuf)
	rec.Attach(remoteDev)

	srv := NewServer(remoteDev, Config{Window: batchSize})
	addr, stop := startServer(t, srv)

	// Two sequential sessions on different namespaces: the recorded
	// trace interleaves nothing, so in-process replay order is exactly
	// device execution order.
	var remoteErrs []string
	for _, nsid := range []int{1, 2} {
		c, err := Dial(context.Background(), addr, ClientConfig{NSID: nsid, Window: batchSize})
		if err != nil {
			t.Fatal(err)
		}
		steps := genWorkload(numLBAs, opsPerSes)
		_, errs := runRemote(t, c, steps, blockBytes, batchSize)
		remoteErrs = append(remoteErrs, errs...)
		c.Close()
	}
	stop()
	remoteDev.SetRecorder(nil)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	remoteHash := remoteDev.StateHash()
	remoteFP := fingerprint(remoteDev)

	entries, err := replay.ReadTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2*opsPerSes {
		t.Fatalf("recorded %d commands, want %d", len(entries), 2*opsPerSes)
	}
	sessions := map[uint64]int{}
	for _, e := range entries {
		sessions[e.Session]++
	}
	if len(sessions) != 2 {
		t.Errorf("trace spans %d session ids, want 2: %v", len(sessions), sessions)
	}

	replayDev := newReplayDevice(t, seed, tenants)
	res, err := replay.Verify(replayDev, entries, remoteHash)
	if err != nil {
		t.Fatalf("replay diverged from the recorded run: %v", err)
	}
	if res.Commands != 2*opsPerSes {
		t.Errorf("replay executed %d commands, want %d", res.Commands, 2*opsPerSes)
	}
	if fp := fingerprint(replayDev); !reflect.DeepEqual(fp, remoteFP) {
		t.Errorf("fingerprints differ:\nremote %+v\nreplay %+v", remoteFP, fp)
	}
	if len(res.Errors) != len(remoteErrs) {
		t.Fatalf("error streams differ in length: replay %d, remote %d", len(res.Errors), len(remoteErrs))
	}
	for i := range remoteErrs {
		if res.Errors[i] != remoteErrs[i] {
			t.Errorf("command %d: replay error %q, remote error %q", i, res.Errors[i], remoteErrs[i])
		}
	}
}
