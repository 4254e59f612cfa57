package perf

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
	"ftlhammer/internal/transport"
)

// NewDevice builds the standard benchmark device: SmallGeometry DRAM that
// never flips, TinyGeometry flash, one namespace spanning an FTL of 3/4
// of the flash, no faults, and the robustness policy when robust is set.
// It panics on configuration errors — the harness has no *testing.T and
// a broken fixture is a bug, not a measurement.
func NewDevice(seed uint64, robust bool) (*nvme.Device, *nvme.Namespace) {
	flash := nand.TinyGeometry()
	bd, err := fleet.DeviceSpec{
		Tenants: 1,
		Robust:  robust,
		DRAM: &dram.Config{
			Geometry: dram.SmallGeometry(),
			Profile:  dram.InvulnerableProfile(),
		},
		Flash: &flash,
		FTL:   &ftl.Config{NumLBAs: flash.TotalPages() * 3 / 4},
	}.Build(seed, nil)
	if err != nil {
		panic(fmt.Sprintf("perf: %v", err))
	}
	ns, _ := bd.Device.NamespaceByID(1)
	return bd.Device, ns
}

// warmDevice maps a spread of LBAs so reads hit the flash path and the
// lazily materialized state (DRAM frames, flash pages, L2P) is resident
// before the timer starts.
func warmDevice(dev *nvme.Device, ns *nvme.Namespace, lbas int) []byte {
	buf := make([]byte, dev.BlockBytes())
	for i := 0; i < lbas; i++ {
		c, err := dev.Do(nvme.Command{Op: nvme.OpWrite, NS: ns, LBA: ftl.LBA(i), Buf: buf})
		if err != nil || c.Err != nil {
			panic(fmt.Sprintf("perf: warm write %d: %v / %v", i, err, c.Err))
		}
	}
	return buf
}

// BenchDoContextRead measures a mapped in-process read through
// Device.Do — the tightest loop in the simulator.
func BenchDoContextRead(b *testing.B) {
	dev, ns := NewDevice(1, false)
	buf := warmDevice(dev, ns, 64)
	cmd := nvme.Command{Op: nvme.OpRead, NS: ns, LBA: 7, Buf: buf}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, err := dev.Do(cmd); err != nil || c.Err != nil {
			b.Fatalf("Do: %v / %v", err, c.Err)
		}
	}
}

// BenchDoContextWrite measures an in-process overwrite, which exercises
// the FTL allocation path and, at steady state, garbage collection and
// the flash array's recycled page buffers.
func BenchDoContextWrite(b *testing.B) {
	dev, ns := NewDevice(2, false)
	buf := warmDevice(dev, ns, 64)
	cmd := nvme.Command{Op: nvme.OpWrite, NS: ns, LBA: 7, Buf: buf}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, err := dev.Do(cmd); err != nil || c.Err != nil {
			b.Fatalf("Do: %v / %v", err, c.Err)
		}
	}
}

// BenchRobustRead measures the robust-path happy case: retry machinery
// armed, no faults firing. The delta against BenchDoContextRead is the
// pure cost of the robustness layer.
func BenchRobustRead(b *testing.B) {
	dev, ns := NewDevice(3, true)
	buf := warmDevice(dev, ns, 64)
	cmd := nvme.Command{Op: nvme.OpRead, NS: ns, LBA: 7, Buf: buf}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c, err := dev.Do(cmd); err != nil || c.Err != nil {
			b.Fatalf("Do: %v / %v", err, c.Err)
		}
	}
}

// BenchDoBatch measures DoBatch with a recycled completions slice — the
// device call a server session makes per batch.
func BenchDoBatch(b *testing.B) {
	const batch = 16
	dev, ns := NewDevice(4, false)
	buf := warmDevice(dev, ns, 64)
	cmds := make([]nvme.Command, batch)
	for i := range cmds {
		cmds[i] = nvme.Command{Op: nvme.OpRead, NS: ns, LBA: ftl.LBA(i), Buf: buf}
	}
	comps := make([]nvme.Completion, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comps = dev.DoBatch(nil, cmds, comps[:0])
	}
	if len(comps) != batch {
		b.Fatalf("DoBatch returned %d completions", len(comps))
	}
}

// BenchDRAMBatch measures a frame-sized (4 KiB) DRAM read — the batched
// touch-application path that backs every L2P and data access.
func BenchDRAMBatch(b *testing.B) {
	world := sim.NewWorld(5)
	mem := dram.New(dram.Config{
		Geometry: dram.SmallGeometry(),
		Profile:  dram.InvulnerableProfile(),
		Seed:     5,
	}, world)
	const span = 4096
	buf := make([]byte, span)
	// Touch a few frames so the sparse store is materialized.
	for addr := uint64(0); addr < 8*span; addr += span {
		if err := mem.Write(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(span)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mem.Read(uint64(i%8)*span, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchServerBatch measures one full networked window over loopback TCP:
// client-side batch encode, server decode, device execution,
// completion encode, and the client's parse — the end-to-end wire path
// per command.
func BenchServerBatch(b *testing.B) {
	const window = 16
	dev, _ := NewDevice(6, false)
	srv := transport.NewServer(dev, transport.Config{Window: window})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(context.Background(), ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}()

	c, err := transport.Dial(context.Background(), ln.Addr().String(),
		transport.ClientConfig{NSID: 1, Window: window})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, c.BlockBytes())

	ring := func() {
		for i := 0; i < window; i++ {
			if err := c.Submit(nvme.Command{Op: nvme.OpRead, LBA: ftl.LBA(i), Buf: buf}); err != nil {
				b.Fatal(err)
			}
		}
		if n, err := c.Ring(context.Background()); err != nil || n != window {
			b.Fatalf("Ring: n=%d err=%v", n, err)
		}
	}
	ring() // warm the session's working set
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += window {
		ring()
	}
}

// Case names one canonical hot-path benchmark. Names are stable: they key
// BENCH_baseline.json entries and the perfgate comparison.
type Case struct {
	Name  string
	Bench func(*testing.B)
}

// Cases returns the canonical hot-path benchmark set in a stable order.
func Cases() []Case {
	return []Case{
		{"DoContextRead", BenchDoContextRead},
		{"DoContextWrite", BenchDoContextWrite},
		{"RobustRead", BenchRobustRead},
		{"DoBatch", BenchDoBatch},
		{"DRAMBatch", BenchDRAMBatch},
		{"ServerBatch", BenchServerBatch},
	}
}
