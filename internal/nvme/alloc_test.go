package nvme

import (
	"testing"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/sim"
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

// TestRelocatingWriteAllocs pins garbage collection's relocation of live
// pages at 0 allocs/op. Random overwrites of a namespace written in full
// first leave live pages in the blocks GC reclaims, unlike the fast-path
// write case, which rewrites one LBA. One measured run writes two
// blocks' worth of pages, enough to open a block that sets GC off, so an
// allocation per GC pass shows as at least one per run.
func TestRelocatingWriteAllocs(t *testing.T) {
	dev, ns, _ := testDevice(t, nil)
	cmd := Command{Op: OpWrite, NS: ns, Buf: make([]byte, dev.BlockBytes())}
	write := func() {
		if c, err := dev.Do(cmd); err != nil || c.Err != nil {
			t.Fatalf("write LBA %d: %v / %v", cmd.LBA, err, c.Err)
		}
	}
	for lba := uint64(0); lba < ns.NumLBAs; lba++ {
		cmd.LBA = ftl.LBA(lba)
		write()
	}
	rng := sim.NewRNG(1)
	perRun := 2 * dev.flash.Geometry().PagesPerBlock
	run := func() {
		for i := 0; i < perRun; i++ {
			cmd.LBA = ftl.LBA(rng.Uint64n(ns.NumLBAs))
			write()
		}
	}
	// Warm up until the page buffers in use stop growing.
	for dev.flash.Stats().Erases < 64 {
		run()
	}
	const runs = 50
	before := dev.FTL().Stats()
	avg := testing.AllocsPerRun(runs, run)
	after := dev.FTL().Stats()
	if passes := after.GCRuns - before.GCRuns; passes < runs {
		t.Fatalf("%d GC passes in %d runs, want at least one per run", passes, runs)
	}
	if moved := after.GCPagesMoved - before.GCPagesMoved; moved < after.GCRuns-before.GCRuns {
		t.Fatalf("GC moved %d live pages in %d passes, want at least one per pass",
			moved, after.GCRuns-before.GCRuns)
	}
	if avg != 0 {
		t.Errorf("relocating writes: %v allocs per %d writes, want 0", avg, perRun)
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

// TestDoBatchRefilledBatchAllocs pins the batching pattern of the
// experiments' queue-depth-32 loops: a caller-owned command slice
// refilled in place and a recycled completions slice make a warm batch
// allocate nothing.
func TestDoBatchRefilledBatchAllocs(t *testing.T) {
	dev, ns, _ := testDevice(t, nil)
	buf := make([]byte, dev.BlockBytes())
	cmds := make([]Command, 0, 8)
	var comps []Completion
	batch := func() {
		cmds = cmds[:0]
		for i := 0; i < cap(cmds); i++ {
			cmds = append(cmds, Command{Op: OpRead, NS: ns, Path: PathDirect, LBA: ftl.LBA(i), Buf: buf})
		}
		comps = dev.DoBatch(nil, cmds, comps[:0])
		for _, c := range comps {
			if c.Err != nil {
				t.Fatal(c.Err)
			}
		}
	}
	for i := 0; i < 16; i++ {
		batch()
	}
	if avg := testing.AllocsPerRun(100, batch); avg != 0 {
		t.Errorf("refilled DoBatch: %v allocs/op, want 0", avg)
	}
}
