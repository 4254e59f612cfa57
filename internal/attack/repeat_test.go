package attack

import (
	"reflect"
	"testing"

	"ftlhammer/internal/fleet"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
)

// hammerTwin is the hammered device of the benchmark's hammer workload:
// weak DRAM with tRC/tFAW, one tenant, x5 firmware amplification. With a
// no-op recorder attached the device is ineligible for the next-event
// path, so Hammer runs the per-command loop on it.
func hammerTwin(t testing.TB, seed uint64, perCommand bool) (*nvme.Device, *nvme.Namespace) {
	t.Helper()
	bd, err := fleet.DeviceSpec{Profile: "weak", Tenants: 1, Amplify: 5}.Build(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if perCommand {
		bd.Device.SetRecorder(func(nvme.CommandRecord) {})
	}
	return bd.Device, bd.Device.Namespaces()[0]
}

// TestHammerFastPathMatchesPerCommandLoop runs the hammer workload's
// pipeline (contiguous allocator, double-sided pattern, canary victim) on
// twin devices, one through the next-event path and one per command. Each
// iteration makes 18 activations on the single rank, rotating the tFAW
// ring by two slots, so the hammer settles into a period of two cycles; a
// fast path that assumed period one would shift the ring in the wrong
// slot order and change StateHash.
func TestHammerFastPathMatchesPerCommandLoop(t *testing.T) {
	for _, seed := range []uint64{1, 3} {
		var hashes [2]uint64
		var results [2]Result
		var flips [2]int
		var stats [2]nvme.NSStats
		for i, perCommand := range []bool{false, true} {
			dev, ns := hammerTwin(t, seed, perCommand)
			p := Pipeline{
				Dev: dev, NS: ns, Path: nvme.PathDirect,
				Alloc:    &ContiguousAllocator{MaxBindings: 2},
				Hammerer: &DeviceHammerer{Dev: dev, NS: ns, Path: nvme.PathDirect},
				Victim:   &CanaryVictim{Dev: dev, NS: ns, Path: nvme.PathDirect, MaxLines: 1},
			}
			pat := DoublePattern()
			pat.Iterations = 200_001
			res, err := p.Run(pat)
			if err != nil {
				t.Fatal(err)
			}
			dev.SetRecorder(nil)
			hashes[i], results[i], flips[i], stats[i] = dev.StateHash(), res, len(dev.DRAM().Flips()), ns.Stats()
		}
		if hashes[0] != hashes[1] || !reflect.DeepEqual(results[0], results[1]) || stats[0] != stats[1] {
			t.Errorf("seed %d: fast path hash %#x %+v %+v, per-command %#x %+v %+v",
				seed, hashes[0], results[0], stats[0], hashes[1], results[1], stats[1])
		}
		if flips[0] == 0 {
			t.Errorf("seed %d: no flips; the case does not cross a threshold", seed)
		}
	}
}

// TestHammerFastPathAllocs pins the fast path's allocations: on an
// eligible device, Hammer allocates no more than the per-command loop on a
// twin, at 1,000 and at 100,000 iterations.
func TestHammerFastPathAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("race builds arm the clock's owner guard, which allocates on every 4096th clock touch")
	}
	allocs := func(perCommand bool, iters int) float64 {
		dev, ns := hammerTwin(t, 1, perCommand)
		bindings, err := (&ContiguousAllocator{MaxBindings: 1}).Allocate(dev, ns, nvme.PathDirect, 2)
		if err != nil || len(bindings) == 0 {
			t.Fatalf("allocate: %v (%d bindings)", err, len(bindings))
		}
		h := &DeviceHammerer{Dev: dev, NS: ns, Path: nvme.PathDirect}
		p := DoublePattern()
		p.Iterations = iters
		var hErr error
		avg := testing.AllocsPerRun(3, func() {
			if err := h.Hammer(bindings[0], p); err != nil {
				hErr = err
			}
		})
		if hErr != nil {
			t.Fatal(hErr)
		}
		return avg
	}
	for _, n := range []int{1000, 100_000} {
		if fast, ref := allocs(false, n), allocs(true, n); fast > ref {
			t.Errorf("Hammer at %d iterations: %.1f allocs on the fast path, %.1f per command", n, fast, ref)
		}
	}
}
