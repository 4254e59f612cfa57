package attack

import (
	"testing"

	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
)

// TestHammerAllocsFlat pins the hammer iteration's share of the
// zero-allocation contract: on the default fuzz target (trr:1), one
// DeviceHammerer.Hammer call allocates a fixed amount for its set-up, and
// no more as Iterations grows. The TRR sampler acts at every refresh tick
// of every bank the hammer touches, so an allocation there grows with the
// iteration count and shows here.
func TestHammerAllocsFlat(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("race builds arm the clock's owner guard, which allocates on every 4096th clock touch")
	}
	dev, err := TargetSpec{}.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	ns, ok := dev.NamespaceByID(1)
	if !ok {
		t.Fatal("target has no namespace 1")
	}
	bindings, err := (&ContiguousAllocator{MaxBindings: 1}).Allocate(dev, ns, nvme.PathDirect, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) == 0 {
		t.Fatal("no binding")
	}
	h := &DeviceHammerer{Dev: dev, NS: ns, Path: nvme.PathDirect}
	allocs := func(iters int) float64 {
		p := DoublePattern()
		p.Iterations = iters
		var hErr error
		avg := testing.AllocsPerRun(5, func() {
			if err := h.Hammer(bindings[0], p); err != nil {
				hErr = err
			}
		})
		if hErr != nil {
			t.Fatal(hErr)
		}
		return avg
	}
	base := allocs(100)
	for _, n := range []int{1000, 4000} {
		if got := allocs(n); got > base {
			t.Errorf("Hammer: %.0f allocs at %d iterations, %.0f at 100: the iteration allocates", got, n, base)
		}
	}
}
