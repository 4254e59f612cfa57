package nvme

import (
	"testing"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
)

// TestDoContextFastPathAllocs pins the zero-allocation property of the
// in-process command hot path: once lazily materialized state (DRAM
// frames, flash pages, queue backing arrays) has warmed up, reads and
// writes through Device.Do must not allocate at all. Simulated IOPS is
// the ceiling on every experiment in this repo, so an allocation creeping
// into this path is a perf regression, not a style issue.
func TestDoContextFastPathAllocs(t *testing.T) {
	dev, ns, _ := testDevice(t, nil)
	buf := make([]byte, dev.BlockBytes())

	warm := func(cmd Command) {
		for i := 0; i < 64; i++ {
			if _, err := dev.Do(cmd); err != nil {
				t.Fatal(err)
			}
		}
	}

	cases := []struct {
		name string
		cmd  Command
	}{
		{"read-unmapped", Command{Op: OpRead, NS: ns, LBA: 3, Buf: buf}},
		{"read-mapped", Command{Op: OpRead, NS: ns, LBA: 5, Buf: buf}},
		{"write", Command{Op: OpWrite, NS: ns, LBA: 5, Buf: buf}},
	}
	// Map LBA 5 so read-mapped exercises the flash path, and push the
	// write workload through enough program/erase cycles that the flash
	// array's page population (and its recycled buffers) reaches steady
	// state before allocations are counted.
	wcmd := Command{Op: OpWrite, NS: ns, LBA: 5, Buf: buf}
	for i := 0; dev.flash.Stats().Erases < 4 && i < 50000; i++ {
		if c, err := dev.Do(wcmd); err != nil || c.Err != nil {
			t.Fatalf("setup write: %v / %v", err, c.Err)
		}
	}
	if dev.flash.Stats().Erases < 4 {
		t.Fatal("setup writes never cycled the flash array")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Subtests run on their own goroutine; take clock ownership so
			// the race-build owner guard follows.
			dev.Clock().Handoff()
			warm(tc.cmd)
			avg := testing.AllocsPerRun(200, func() {
				c, err := dev.Do(tc.cmd)
				if err != nil || c.Err != nil {
					t.Fatalf("Do: %v / %v", err, c.Err)
				}
			})
			if avg != 0 {
				t.Errorf("%s: %v allocs/op, want 0", tc.name, avg)
			}
		})
	}
}

// TestRobustHappyPathAllocs pins the robust path's happy case: with the
// retry/timeout machinery armed but no faults firing, a command costs the
// same zero allocations as the fast path (the retry state is pre-sized,
// not closed over).
func TestRobustHappyPathAllocs(t *testing.T) {
	dev, ns, _ := robustDevice(t, faults.Plan{}, DefaultRobust())
	buf := make([]byte, dev.BlockBytes())
	cmd := Command{Op: OpRead, NS: ns, LBA: ftl.LBA(7), Buf: buf}
	for i := 0; i < 64; i++ {
		if _, err := dev.Do(cmd); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		c, err := dev.Do(cmd)
		if err != nil || c.Err != nil {
			t.Fatalf("Do: %v / %v", err, c.Err)
		}
	})
	if avg != 0 {
		t.Errorf("robust happy path: %v allocs/op, want 0", avg)
	}
}

// TestDoBatchSteadyStateAllocs pins that a recycled completions slice
// makes whole batches allocation-free.
func TestDoBatchSteadyStateAllocs(t *testing.T) {
	dev, ns, _ := testDevice(t, nil)
	buf := make([]byte, dev.BlockBytes())
	cmds := make([]Command, 8)
	for i := range cmds {
		cmds[i] = Command{Op: OpRead, NS: ns, LBA: ftl.LBA(i), Buf: buf}
	}
	comps := make([]Completion, 0, len(cmds))
	for i := 0; i < 16; i++ {
		comps = dev.DoBatch(nil, cmds, comps[:0])
	}
	avg := testing.AllocsPerRun(100, func() {
		comps = dev.DoBatch(nil, cmds, comps[:0])
		for i := range comps {
			if comps[i].Err != nil {
				t.Fatal(comps[i].Err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("DoBatch: %v allocs/op, want 0", avg)
	}
}

// TestQueuePairRingAllocs pins that a queue pair reuses its completion
// slice: once warm, a Ring drained by Completions allocates nothing.
func TestQueuePairRingAllocs(t *testing.T) {
	dev, ns, _ := testDevice(t, nil)
	qp, err := dev.NewQueuePair(ns, PathDirect, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, dev.BlockBytes())
	ring := func() {
		for i := 0; i < qp.Depth(); i++ {
			if err := qp.Submit(Command{Op: OpRead, LBA: ftl.LBA(i), Buf: buf}); err != nil {
				t.Fatal(err)
			}
		}
		qp.Ring()
		for _, c := range qp.Completions() {
			if c.Err != nil {
				t.Fatal(c.Err)
			}
		}
	}
	for i := 0; i < 16; i++ {
		ring()
	}
	if avg := testing.AllocsPerRun(100, ring); avg != 0 {
		t.Errorf("QueuePair Ring+Completions: %v allocs/op, want 0", avg)
	}
}
