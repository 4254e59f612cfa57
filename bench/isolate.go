package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/ext4"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/guard"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
	"ftlhammer/internal/transport"
)

// isolate is the traced run's layer-isolation phase. Each case calls one
// layer's public entry directly, shaped like the canonical hammered read:
// the two trimmed aggressor LBAs of the hammer workload's first binding,
// read alternately on a device built from the same spec and seed. Each
// reports the median over isoReps reps of isoOps operations. The
// reconciliation terms (ROADMAP item 1(c)) are differences of these
// medians; a large one means the ledger is missing a layer.
func isolate(r *runner) error {
	r.tr.trace = -1
	steps := []func(*runner) error{isolateHammeredRead, isolateWrites, isolateNAND, isolateGuard, isolateExt4, isolateTransport}
	for _, step := range steps {
		if err := step(r); err != nil {
			return err
		}
	}
	l := r.layer
	l["nvme.residual_ns"] = l["nvme.read_unmapped_ns"] - l["ftl.read_unmapped_ns"]
	l["attack.residual_ns"] = l["attack.iter_ns"] - 2*l["nvme.read_unmapped_ns"]
	l["transport.ns_per_cmd"] = l["transport.ring_ns"]/servedWindow - l["nvme.dobatch_ns_per_cmd"]
	return nil
}

// isoCase is one timed operation: fn performs ops operations.
type isoCase struct {
	name string
	fn   func(ops int) error
}

// timeCases runs each case's fn(isoOps) isoReps times and stores the
// median ns per operation under the case's name.
func timeCases(r *runner, cases ...isoCase) error {
	for _, c := range cases {
		xs := make([]float64, r.sz.isoReps)
		for i := range xs {
			h := r.tr.begin("isolate."+c.name, 0)
			t0 := time.Now()
			err := c.fn(r.sz.isoOps)
			xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(r.sz.isoOps)
			r.tr.end(h)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		}
		r.layer[c.name] = median(xs)
	}
	return nil
}

// hammeredBinding readies one binding on a hammerSpec device (its
// aggressor LBAs trimmed), as the hammer workload's allocator does.
func hammeredBinding(dev *nvme.Device) (attack.Binding, error) {
	bs, err := (&attack.ContiguousAllocator{MaxBindings: 1}).Allocate(dev, dev.Namespaces()[0], nvme.PathDirect, 2)
	if err != nil {
		return attack.Binding{}, err
	}
	return bs[0], nil
}

var errUnexpectedMapped = errors.New("trimmed aggressor read as mapped")

func isolateHammeredRead(r *runner) error {
	bd, err := hammerSpec.Build(r.seed, nil)
	if err != nil {
		return err
	}
	dev := bd.Device
	ns := dev.Namespaces()[0]
	f, mem := dev.FTL(), dev.DRAM()
	b, err := hammeredBinding(dev)
	if err != nil {
		return err
	}
	agg := [2]ftl.LBA{b.Sides[0][0], b.Sides[1][0]}
	global := [2]ftl.LBA{ns.StartLBA + agg[0], ns.StartLBA + agg[1]}
	var entry [2]uint64
	for k := range entry {
		if entry[k], err = f.EntryAddr(global[k]); err != nil {
			return err
		}
	}
	buf := make([]byte, dev.BlockBytes())
	ebuf := make([]byte, ftl.EntryBytes)
	cmds := make([]nvme.Command, servedWindow)
	for i := range cmds {
		cmds[i] = nvme.Command{Op: nvme.OpRead, NS: ns, LBA: agg[i&1], Buf: buf}
	}
	comps := make([]nvme.Completion, 0, len(cmds))
	hm := &attack.DeviceHammerer{Dev: dev, NS: ns, Path: nvme.PathDirect}
	pat := attack.DoublePattern()

	return timeCases(r,
		isoCase{"nvme.read_unmapped_ns", func(ops int) error {
			for i := 0; i < ops; i++ {
				c, err := dev.Do(nvme.Command{Op: nvme.OpRead, NS: ns, LBA: agg[i&1], Buf: buf})
				if err != nil {
					return err
				}
				if c.Err != nil {
					return c.Err
				}
				if c.Mapped {
					return errUnexpectedMapped
				}
			}
			return nil
		}},
		isoCase{"ftl.read_unmapped_ns", func(ops int) error {
			for i := 0; i < ops; i++ {
				mapped, err := f.ReadLBA(global[i&1], buf)
				if err != nil {
					return err
				}
				if mapped {
					return errUnexpectedMapped
				}
			}
			return nil
		}},
		isoCase{"dram.read_entry_ns", func(ops int) error {
			for i := 0; i < ops; i++ {
				if err := mem.Read(entry[i&1], ebuf); err != nil {
					return err
				}
			}
			return nil
		}},
		isoCase{"dram.activate_ns", func(ops int) error {
			for i := 0; i < ops; i++ {
				mem.Activate(entry[i&1])
			}
			return nil
		}},
		isoCase{"nvme.dobatch_ns_per_cmd", func(ops int) error {
			for i := 0; i < ops; i += len(cmds) {
				comps = dev.DoBatch(context.Background(), cmds, comps[:0])
				for _, c := range comps {
					if c.Err != nil {
						return c.Err
					}
				}
			}
			return nil
		}},
		isoCase{"attack.iter_ns", func(ops int) error {
			pat.Iterations = ops
			return hm.Hammer(b, pat)
		}},
	)
}

// isolateWrites measures the FTL's mapped-read and overwrite paths on the
// served workload's device, filled as served fills it so that overwrites
// keep garbage collection relocating live pages.
func isolateWrites(r *runner) error {
	bd, err := servedSpec.Build(r.seed, nil)
	if err != nil {
		return err
	}
	f := bd.Device.FTL()
	n := f.NumLBAs()
	buf := make([]byte, f.BlockBytes())
	for lba := uint64(0); lba < n; lba++ {
		if err := f.WriteLBA(ftl.LBA(lba), buf); err != nil {
			return err
		}
	}
	var seq uint64
	return timeCases(r,
		isoCase{"ftl.read_mapped_ns", func(ops int) error {
			for i := 0; i < ops; i++ {
				mapped, err := f.ReadLBA(ftl.LBA(uint64(i)%n), buf)
				if err != nil {
					return err
				}
				if !mapped {
					return errors.New("prefilled LBA read as unmapped")
				}
			}
			return nil
		}},
		isoCase{"ftl.write_ns", func(ops int) error {
			for i := 0; i < ops; i++ {
				seq++
				if err := f.WriteLBA(ftl.LBA(mix(r.seed, seq)%n), buf); err != nil {
					return err
				}
			}
			return nil
		}},
	)
}

// isolateNAND cycles a small array through program, read and erase of
// every page, timing each operation kind apart.
func isolateNAND(r *runner) error {
	geo := nand.TinyGeometry()
	a := nand.New(geo, nand.DefaultLatency())
	pages, blocks := int(geo.TotalPages()), geo.TotalBlocks()
	cycles := max(1, r.sz.isoOps/pages)
	buf := make([]byte, geo.PageBytes)
	var prog, read, erase []float64
	for rep := 0; rep < r.sz.isoReps; rep++ {
		h := r.tr.begin("isolate.nand", 0)
		var tp, tr, te time.Duration
		for c := 0; c < cycles; c++ {
			t0 := time.Now()
			for p := 0; p < pages; p++ {
				if err := a.Program(nand.PPN(p), buf); err != nil {
					return err
				}
			}
			t1 := time.Now()
			for p := 0; p < pages; p++ {
				if err := a.Read(nand.PPN(p), buf); err != nil {
					return err
				}
			}
			t2 := time.Now()
			for b := 0; b < blocks; b++ {
				if err := a.EraseBlock(b); err != nil {
					return err
				}
			}
			tp, tr, te = tp+t1.Sub(t0), tr+t2.Sub(t1), te+time.Since(t2)
		}
		r.tr.end(h)
		prog = append(prog, float64(tp.Nanoseconds())/float64(cycles*pages))
		read = append(read, float64(tr.Nanoseconds())/float64(cycles*pages))
		erase = append(erase, float64(te.Nanoseconds())/float64(cycles*blocks))
	}
	r.layer["nand.program_ns"] = median(prog)
	r.layer["nand.read_ns"] = median(read)
	r.layer["nand.erase_ns"] = median(erase)
	return nil
}

// isolateGuard feeds the guard the hammered read's activation stream: two
// rows of one bank, alternating, 100 ns apart.
func isolateGuard(r *runner) error {
	g := guard.New(guard.DefaultConfig())
	keys := [2]uint64{3<<32 | 1000, 3<<32 | 1002}
	var now sim.Time
	return timeCases(r, isoCase{"guard.observe_ns", func(ops int) error {
		for i := 0; i < ops; i++ {
			now = now.Add(100 * sim.Nanosecond)
			g.Observe(1, keys[i&1], now)
		}
		return nil
	}})
}

// countingDev counts block reads under a filesystem.
type countingDev struct {
	ext4.BlockDevice
	reads int
}

func (d *countingDev) ReadBlock(lba uint64, buf []byte) error {
	d.reads++
	return d.BlockDevice.ReadBlock(lba, buf)
}

// ext4Entries is how many files the ext4 case puts in one directory: the
// spray's shape, where lookups scan a large directory linearly.
const ext4Entries = 1024

// isolateExt4 creates ext4Entries files in one directory of a fresh
// in-memory volume, then looks each up again.
func isolateExt4(r *runner) error {
	names := make([]string, ext4Entries)
	for i := range names {
		names[i] = fmt.Sprintf("/spray/f%05d", i)
	}
	var create, lookup, reads []float64
	for rep := 0; rep < r.sz.isoReps; rep++ {
		dev := &countingDev{BlockDevice: ext4.NewMemDevice(16384)}
		if err := ext4.Mkfs(dev, ext4.MkfsOptions{}); err != nil {
			return err
		}
		fs, err := ext4.Mount(dev)
		if err != nil {
			return err
		}
		if err := fs.Mkdir("/spray", ext4.Root, 0o755); err != nil {
			return err
		}
		h := r.tr.begin("isolate.ext4.create", 0)
		t0 := time.Now()
		for _, name := range names {
			if _, err := fs.Create(name, ext4.Root, ext4.CreateOptions{UseIndirect: true, Mode: 0o644}); err != nil {
				return err
			}
		}
		t1 := time.Now()
		r.tr.end(h)
		before := dev.reads
		h = r.tr.begin("isolate.ext4.lookup", 0)
		for _, name := range names {
			if _, err := fs.Stat(name, ext4.Root); err != nil {
				return err
			}
		}
		t2 := time.Now()
		r.tr.end(h)
		create = append(create, float64(t1.Sub(t0).Nanoseconds())/ext4Entries)
		lookup = append(lookup, float64(t2.Sub(t1).Nanoseconds())/ext4Entries)
		reads = append(reads, float64(dev.reads-before)/ext4Entries)
	}
	r.layer["ext4.create_ns"] = median(create)
	r.layer["ext4.lookup_ns"] = median(lookup)
	r.layer["ext4.block_reads_per_lookup"] = median(reads)
	return nil
}

// isolateTransport times one window of hammered reads (servedWindow reads
// of the two trimmed aggressors) per Ring, on a one-device fleet: straight
// to the member's transport server, and through the fleet frontend. The
// difference is the splice's cost.
func isolateTransport(r *runner) error {
	f, err := fleet.New(fleet.Config{Devices: 1, Spec: hammerSpec, Seed: r.seed, Transport: transport.Config{Window: servedWindow}})
	if err != nil {
		return err
	}
	b, err := hammeredBinding(f.Member(0).BD.Device)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := f.Start(ctx); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	feDone := make(chan error, 1)
	go func() { feDone <- f.ServeFrontend(ctx, ln) }()
	runErr := func() error {
		var cl [2]*transport.Client
		for i, addr := range []string{f.Member(0).Addr(), ln.Addr().String()} {
			c, err := transport.Dial(ctx, addr, transport.ClientConfig{NSID: 1, Window: servedWindow})
			if err != nil {
				return err
			}
			defer c.Close()
			cl[i] = c
		}
		buf := make([]byte, cl[0].BlockBytes())
		rings := max(1, r.sz.isoOps/servedWindow)
		var xs [2][]float64
		for rep := 0; rep < r.sz.isoReps; rep++ {
			for i, c := range cl {
				h := r.tr.begin("isolate.transport", 0)
				t0 := time.Now()
				for k := 0; k < rings; k++ {
					for j := 0; j < servedWindow; j++ {
						if err := c.Submit(nvme.Command{Op: nvme.OpRead, LBA: b.Sides[j&1][0], Buf: buf}); err != nil {
							return err
						}
					}
					if _, err := c.Ring(context.Background()); err != nil {
						return err
					}
					for _, cp := range c.Completions() {
						if cp.Err != nil {
							return cp.Err
						}
					}
				}
				xs[i] = append(xs[i], float64(time.Since(t0).Nanoseconds())/float64(rings))
				r.tr.end(h)
			}
		}
		r.layer["transport.ring_ns"] = median(xs[0])
		r.layer["fleet.splice_ns"] = median(xs[1]) - median(xs[0])
		return nil
	}()
	cancel()
	ferr := <-feDone
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := f.Shutdown(sctx); err != nil && runErr == nil {
		runErr = err
	}
	if runErr == nil && !errors.Is(ferr, fleet.ErrFrontendClosed) {
		runErr = ferr
	}
	return runErr
}
