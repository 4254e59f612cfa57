package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/transport"
)

// servedWindow is each session's inflight window and batch size.
const servedWindow = 16

// servedSpec is each fleet member: weak DRAM, one tenant, no amplification.
var servedSpec = fleet.DeviceSpec{Profile: "weak", Tenants: 1}

// servedWorkload is the served path: a two-device fleet behind the
// protocol-splicing frontend on loopback, with one closed-loop session per
// tenant (two client connections). Tenant 1 replays reads of three trimmed
// aggressor LBAs, like hammerload's hammer pattern; tenant 2 writes a
// stamped block at a hash-random LBA and reads it back. Spread placement
// puts the tenants on different devices.
type servedWorkload struct {
	f      *fleet.Fleet
	cancel context.CancelFunc
	feDone chan error
	cl     [2]*transport.Client
	aggr   []ftl.LBA
}

func (w *servedWorkload) setup(r *runner, traced bool) error {
	t := r.tracing(traced)
	h := t.begin("fleet.New", 0)
	f, err := fleet.New(fleet.Config{
		Devices:   2,
		Spec:      servedSpec,
		Seed:      r.seed,
		Transport: transport.Config{Window: servedWindow},
	})
	t.end(h)
	if err != nil {
		return err
	}
	w.f = f
	if err := w.prefill(t); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	h = t.begin("fleet.Start", 0)
	err = f.Start(ctx)
	t.end(h)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.feDone = make(chan error, 1)
	go func() { w.feDone <- f.ServeFrontend(ctx, ln) }()
	for i := range w.cl {
		h := t.begin("transport.Dial", 0)
		c, err := transport.Dial(ctx, ln.Addr().String(), transport.ClientConfig{NSID: i + 1, Window: servedWindow})
		t.end(h)
		if err != nil {
			return err
		}
		w.cl[i] = c
	}
	n := w.cl[0].NumLBAs()
	w.aggr = []ftl.LBA{ftl.LBA(n / 7), ftl.LBA(3 * n / 7), ftl.LBA(5 * n / 7)}
	for _, lba := range w.aggr {
		h := t.begin("transport.Client.Trim", 0)
		err := w.cl[0].Trim(context.Background(), lba)
		t.end(h)
		if err != nil {
			return fmt.Errorf("trimming aggressor %d: %w", lba, err)
		}
	}
	return nil
}

// prefill writes every block of tenant 2's namespace before serving, so
// the timed overwrites leave blocks partly valid and garbage collection
// has live pages to relocate; on an empty namespace it only erases dead
// blocks.
func (w *servedWorkload) prefill(t *tracer) error {
	rt, err := w.f.Table().Lookup(2)
	if err != nil {
		return err
	}
	dev := w.f.Member(rt.Device).BD.Device
	ns, ok := dev.NamespaceByID(rt.NSID)
	if !ok {
		return fmt.Errorf("tenant 2: no namespace %d on device %d", rt.NSID, rt.Device)
	}
	buf := make([]byte, dev.BlockBytes())
	for lba := uint64(0); lba < ns.NumLBAs; lba++ {
		stamp(buf, 2, lba, 0)
		h := t.begin("nvme.Device.Do", 0)
		c, err := dev.Do(nvme.Command{Op: nvme.OpWrite, NS: ns, LBA: ftl.LBA(lba), Buf: buf})
		t.end(h)
		if err == nil {
			err = c.Err
		}
		if err != nil {
			return fmt.Errorf("prefill LBA %d: %w", lba, err)
		}
	}
	return nil
}

// stamp tags a block with its tenant, LBA and write sequence number.
func stamp(buf []byte, tenant, lba, seq uint64) {
	binary.LittleEndian.PutUint64(buf, tenant)
	binary.LittleEndian.PutUint64(buf[8:], lba)
	binary.LittleEndian.PutUint64(buf[16:], seq)
}

// mix is a splitmix64 finalizer: the seed-keyed hash behind tenant 2's LBAs.
func mix(seed, i uint64) uint64 {
	x := seed*0x9E3779B97F4A7C15 + i
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// sessionResult is one session's unit.
type sessionResult struct {
	done, errs, corrupt int64
	rttMS               []float64
	err                 error
}

// session issues n commands in batches of servedWindow and checks every
// completion: tenant 1's reads must stay unmapped, tenant 2's reads must
// return the stamp just written.
func (w *servedWorkload) session(i int, seed uint64, n int, t *tracer) sessionResult {
	c := w.cl[i]
	res := sessionResult{rttMS: make([]float64, 0, n/servedWindow+1)}
	bufs := make([][]byte, servedWindow)
	for j := range bufs {
		bufs[j] = make([]byte, c.BlockBytes())
	}
	numLBAs := c.NumLBAs()
	var seq uint64
	for int(res.done) < n {
		k := min(servedWindow, n-int(res.done))
		for j := 0; j < k; j++ {
			cmd := nvme.Command{Op: nvme.OpRead, Tag: seq, Buf: bufs[j]}
			if i == 0 {
				cmd.LBA = w.aggr[seq%uint64(len(w.aggr))]
			} else {
				cmd.LBA = ftl.LBA(mix(seed, seq/2) % numLBAs)
				if seq%2 == 0 {
					cmd.Op = nvme.OpWrite
					stamp(bufs[j], 2, uint64(cmd.LBA), seq/2)
				}
			}
			seq++
			if err := c.Submit(cmd); err != nil {
				res.err = err
				return res
			}
		}
		h := t.begin("transport.Client.Ring", 0)
		t0 := time.Now()
		_, err := c.Ring(context.Background())
		rtt := time.Since(t0)
		t.end(h)
		if err != nil {
			res.err = err
			return res
		}
		res.rttMS = append(res.rttMS, float64(rtt.Nanoseconds())/1e6)
		for j, cp := range c.Completions() {
			switch {
			case cp.Err != nil:
				res.errs++
			case i == 0 && cp.Mapped:
				res.corrupt++ // a trimmed LBA read through a redirected entry
			case i == 1 && cp.Tag%2 == 1 && (!cp.Mapped || !bytes.Equal(bufs[j][:24], bufs[j-1][:24])):
				res.corrupt++ // the read after each write must echo its stamp
			}
		}
		res.done += int64(k)
	}
	return res
}

func (w *servedWorkload) unit(r *runner, traced bool) (uint64, error) {
	t := r.tracing(traced)
	n := r.sz.servedCmds
	var res [2]sessionResult
	forks := [2]*tracer{t.fork(), t.fork()}
	var wg sync.WaitGroup
	for i := range w.cl {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = w.session(i, r.seed, n, forks[i])
		}(i)
	}
	wg.Wait()
	var cmds uint64
	var errs, corrupt int64
	var rtt []float64
	for i, s := range res {
		t.join(forks[i])
		cmds += uint64(s.done)
		errs += s.errs
		corrupt += s.corrupt
		rtt = append(rtt, s.rttMS...)
		lost := int64(n) - s.done
		r.res.addN(int64(n), s.errs+s.corrupt+lost)
		if s.err != nil {
			r.problem("served session %d lost after %d of %d commands: %v", i+1, s.done, n, s.err)
		}
	}
	if rule := r.gold.Served; errs > rule.CommandErrors || corrupt > rule.CorruptReadbacks {
		r.problem("served: %d command errors and %d corrupt readbacks (allowed %d and %d)",
			errs, corrupt, rule.CommandErrors, rule.CorruptReadbacks)
	}
	sorted := sortedCopy(rtt)
	p99 := 0.0
	if pm, _, ok := tailPercentile(rtt); ok && pm >= 990 {
		p99 = percentile(sorted, 990)
	}
	if traced {
		r.layer["transport.rtt_p50_ms"] = percentile(sorted, 500)
		r.layer["transport.rtt_p99_ms"] = p99
		r.layer["transport.rtt_samples"] = float64(len(rtt))
	} else {
		r.extra["rtt_p50_ms"] = append(r.extra["rtt_p50_ms"], percentile(sorted, 500))
		r.extra["rtt_p99_ms"] = append(r.extra["rtt_p99_ms"], p99)
		r.extra["rtt_samples"] = append(r.extra["rtt_samples"], float64(len(rtt)))
	}
	return cmds, nil
}

func (w *servedWorkload) teardown(r *runner, traced bool) error {
	t := r.tracing(traced)
	for i, c := range w.cl {
		if c != nil {
			c.Close()
			w.cl[i] = nil
		}
	}
	// Canceling closes the frontend and drains the members, as hammerd
	// does on exit; Shutdown then waits for the drain.
	w.cancel()
	ferr := <-w.feDone
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h := t.begin("fleet.Shutdown", 0)
	err := w.f.Shutdown(ctx)
	t.end(h)
	if err == nil && !errors.Is(ferr, fleet.ErrFrontendClosed) {
		err = ferr
	}
	if traced {
		c := counts{}
		c.add(w.f.MergedRegistry())
		c.layerCounts(r.layer)
		r.layer["fleet.sessions_routed"] = float64(w.f.Stats().SessionsRouted)
	}
	w.f = nil
	return err
}
