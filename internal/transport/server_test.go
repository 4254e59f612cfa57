package transport

import (
	"context"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// newTestDevice builds a small device with the given namespace count. The
// returned injector (nil for an empty plan) is shared by the device layers
// and suitable for the server's Faults config.
func newTestDevice(t *testing.T, seed uint64, tenants int, plan faults.Plan) (*nvme.Device, *faults.Injector) {
	t.Helper()
	world := sim.NewWorld(seed)
	inj := faults.New(plan, world)
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
	dev := nvme.New(nvme.Config{Faults: inj}, f, mem, flash, world)
	per := f.NumLBAs() / uint64(tenants)
	for i := 0; i < tenants; i++ {
		if _, err := dev.AddNamespace(per, 0); err != nil {
			t.Fatal(err)
		}
	}
	return dev, inj
}

// startServer runs srv on a loopback listener and returns its address and
// a stop function that drains it and waits for Serve to return.
func startServer(t *testing.T, srv *Server) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(context.Background(), ln) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
				t.Errorf("Serve returned %v, want ErrServerClosed", err)
			}
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// TestConcurrentSessions drives many concurrent tenants through one server
// (run under -race this also exercises the clock handoff between
// sessions under the device mutex) and checks the device-side
// per-namespace totals against what clients sent.
func TestConcurrentSessions(t *testing.T) {
	const (
		tenants     = 4
		sessions    = 64
		opsPer      = 120
		batchSize   = 8
		readsPerOps = 3 // of every 4 ops, 3 reads + 1 write
	)
	dev, _ := newTestDevice(t, 42, tenants, faults.Plan{})
	srv := NewServer(dev, Config{Window: batchSize})
	addr, stop := startServer(t, srv)

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				c, err := Dial(context.Background(), addr, ClientConfig{
					NSID: 1 + i%tenants, Window: batchSize,
				})
				if err != nil {
					return err
				}
				defer c.Close()
				buf := make([]byte, c.BlockBytes())
				for op := 0; op < opsPer; op += batchSize {
					for j := 0; j < batchSize; j++ {
						cmd := nvme.Command{LBA: ftl.LBA((op + j) % int(c.NumLBAs())), Buf: buf, Tag: uint64(op + j)}
						if (op+j)%4 == readsPerOps {
							cmd.Op = nvme.OpWrite
						} else {
							cmd.Op = nvme.OpRead
						}
						if err := c.Submit(cmd); err != nil {
							return err
						}
					}
					if _, err := c.Ring(context.Background()); err != nil {
						return err
					}
					for _, comp := range c.Completions() {
						if comp.Err != nil {
							return comp.Err
						}
					}
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	stop()

	perNS := sessions / tenants * opsPer
	wantWrites := uint64(perNS / 4)
	wantReads := uint64(perNS) - wantWrites
	for _, ns := range dev.Namespaces() {
		st := ns.Stats()
		if st.Reads != wantReads || st.Writes != wantWrites {
			t.Errorf("ns %d: reads=%d writes=%d, want %d/%d", ns.ID, st.Reads, st.Writes, wantReads, wantWrites)
		}
	}
}

func TestHandshakeRejections(t *testing.T) {
	dev, _ := newTestDevice(t, 7, 2, faults.Plan{})
	srv := NewServer(dev, Config{Window: 8})
	addr, _ := startServer(t, srv)

	var remote *RemoteError
	if _, err := Dial(context.Background(), addr, ClientConfig{NSID: 99}); !errors.As(err, &remote) || remote.Status != StatusInvalid {
		t.Errorf("unknown namespace: err = %v, want RemoteError{StatusInvalid}", err)
	}

	// A wrong protocol version must be refused before any session exists.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, frameHello, appendHello(nil, hello{Version: 99, NSID: 1})); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn, 64+maxMsgLen)
	if err != nil || typ != frameWelcome {
		t.Fatalf("readFrame: typ=%d err=%v", typ, err)
	}
	w, err := parseWelcome(payload)
	if err != nil || w.Status != StatusInvalid {
		t.Fatalf("welcome = %+v, %v; want StatusInvalid", w, err)
	}
}

func TestWindowClamp(t *testing.T) {
	dev, _ := newTestDevice(t, 8, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 8})
	addr, _ := startServer(t, srv)

	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1, Window: 5000})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.window != 8 {
		t.Fatalf("granted window = %d, want clamp to 8", c.window)
	}
	for i := 0; i < 8; i++ {
		if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: ftl.LBA(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: 8}); !errors.Is(err, nvme.ErrQueueFull) {
		t.Fatalf("9th submit: err = %v, want ErrQueueFull", err)
	}
	if n, err := c.Ring(context.Background()); n != 8 || err != nil {
		t.Fatalf("Ring = %d, %v", n, err)
	}
}

// TestOverWindowBatchClosesSession sends a raw batch larger than the
// granted window: a protocol violation the server answers by dropping the
// connection.
func TestOverWindowBatchClosesSession(t *testing.T) {
	dev, _ := newTestDevice(t, 9, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 4})
	addr, _ := startServer(t, srv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, frameHello, appendHello(nil, hello{Version: ProtocolVersion, NSID: 1, Window: 4})); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(conn, 64+maxMsgLen); err != nil || typ != frameWelcome {
		t.Fatalf("handshake: typ=%d err=%v", typ, err)
	}
	cmds := make([]wireCmd, 5) // one beyond the granted window
	for i := range cmds {
		cmds[i] = wireCmd{Op: byte(nvme.OpTrim), LBA: uint64(i)}
	}
	if err := writeFrame(conn, frameBatch, appendBatch(nil, cmds)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, _, err := readFrame(conn, 1<<20); err == nil {
		t.Fatal("server answered an over-window batch; want connection close")
	}
}

// TestConnResetFault checks the injector-driven connection teardown: the
// batch completes device-side, then the session dies.
func TestConnResetFault(t *testing.T) {
	plan := faults.Plan{Rules: []faults.Rule{{Kind: faults.KindConnReset, Every: 1}}}
	dev, inj := newTestDevice(t, 10, 1, plan)
	srv := NewServer(dev, Config{Window: 4, Faults: inj})
	addr, stop := startServer(t, srv)

	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// First batch: served and answered (resets apply after the flush).
	if err := c.Trim(context.Background(), 1); err != nil {
		t.Fatalf("first command: %v", err)
	}
	// The connection is now dead; the next round trip must fail, and the
	// device must still have served the command that preceded the reset.
	if err := c.Trim(context.Background(), 2); err == nil {
		t.Fatal("second command succeeded across an injected conn reset")
	}
	stop()
	if got := inj.Injected(faults.KindConnReset); got == 0 {
		t.Error("no conn-reset faults recorded by the injector")
	}
	if st := dev.Namespaces()[0].Stats(); st.Trims != 1 {
		t.Errorf("trims = %d, want exactly the pre-reset command", st.Trims)
	}
}

func TestClientContextCancellation(t *testing.T) {
	dev, _ := newTestDevice(t, 11, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 4})
	addr, _ := startServer(t, srv)

	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ring(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ring under canceled ctx: err = %v, want context.Canceled", err)
	}
	// The stream may be mid-frame: the session is broken, not reusable.
	if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: 1}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Submit after break: err = %v, want ErrClientClosed", err)
	}
}

// TestClientCancelInterruptsRing: canceling ctx while Ring waits for a
// batch the server has not run yet unblocks it with the ctx error, not
// the induced I/O timeout, and breaks the session.
func TestClientCancelInterruptsRing(t *testing.T) {
	dev, _ := newTestDevice(t, 11, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 4})
	addr, _ := startServer(t, srv)

	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One round trip first: the session only waits for devMu once Serve
	// has started it.
	if err := c.Trim(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	srv.devMu.Lock()
	defer srv.devMu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(50*time.Millisecond, cancel).Stop()
	if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ring(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Ring interrupted by cancel: err = %v, want context.Canceled", err)
	}
	if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: 2}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Submit after break: err = %v, want ErrClientClosed", err)
	}
}

func TestGracefulShutdownRefusesNewSessions(t *testing.T) {
	dev, _ := newTestDevice(t, 12, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 4})
	addr, stop := startServer(t, srv)

	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(context.Background(), 3, make([]byte, c.BlockBytes())); err != nil {
		t.Fatal(err)
	}
	stop()
	if err := c.Trim(context.Background(), 3); err == nil {
		t.Error("command succeeded on a drained server")
	}
	c.Close()
	if _, err := Dial(context.Background(), addr, ClientConfig{NSID: 1}); err == nil {
		t.Error("Dial succeeded after shutdown")
	}
	if st := dev.Namespaces()[0].Stats(); st.Writes != 1 {
		t.Errorf("writes = %d after drain, want 1", st.Writes)
	}
}

func TestMaxSessions(t *testing.T) {
	dev, _ := newTestDevice(t, 13, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 4, MaxSessions: 2})
	addr, _ := startServer(t, srv)

	c1, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var remote *RemoteError
	if _, err := Dial(context.Background(), addr, ClientConfig{NSID: 1}); !errors.As(err, &remote) {
		t.Fatalf("3rd session: err = %v, want RemoteError", err)
	}
	// Freeing a slot re-admits.
	c1.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c3, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
		if err == nil {
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownServerFreesDevice checks that a drained Server and its
// device are garbage at the first GC after the last reference to them
// goes, so a caller that builds the next device right after a teardown
// does not hold both at once.
func TestShutdownServerFreesDevice(t *testing.T) {
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	goroutines := runtime.NumGoroutine()
	base := liveHeap()
	var footprint int64
	func() {
		dev, _ := newTestDevice(t, 14, 1, faults.Plan{})
		ns := dev.Namespaces()[0]
		data := make([]byte, dev.BlockBytes())
		for lba := uint64(0); lba < ns.NumLBAs; lba++ {
			if err := dev.Write(ns, ftl.LBA(lba), data, nvme.PathDirect); err != nil {
				t.Fatal(err)
			}
		}
		footprint = liveHeap() - base
		srv := NewServer(dev, Config{Window: 4})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(context.Background(), ln) }()
		c, err := Dial(context.Background(), ln.Addr().String(), ClientConfig{NSID: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(context.Background(), 3, data); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	}()
	// The server's goroutines hold it until they have exited.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after shutdown, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	if kept := liveHeap() - base; kept > footprint/2 {
		t.Errorf("one GC after shutdown the heap still holds %d of the device's %d bytes", kept, footprint)
	}
}

// TestServerMetrics pins what a drained server reports to its device's
// registry: one session of three one-command batches counts one session,
// three batches and commands and every frame byte both ways, and emits
// the session's open and close events.
func TestServerMetrics(t *testing.T) {
	const batches = 3
	dev, _ := newTestDevice(t, 23, 1, faults.Plan{})
	reg := obs.NewTracing(64)
	dev.World().Obs = reg
	srv := NewServer(dev, Config{Window: 4})
	addr, stop := startServer(t, srv)
	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batches; i++ {
		if err := c.Trim(context.Background(), ftl.LBA(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	stop()
	reg.Flush()

	batchFrame := frameHeaderLen + len(appendBatch(nil, []wireCmd{{Op: byte(nvme.OpTrim)}}))
	compFrame := frameHeaderLen + len(appendCompletions(nil, []wireCompletion{{Status: StatusOK}}))
	want := map[string]uint64{
		"transport_sessions_total":          1,
		"transport_sessions_rejected_total": 0,
		"transport_batches_total":           batches,
		"transport_commands_total":          batches,
		"transport_conn_resets_total":       0,
		"transport_bytes_read_total":        uint64(batches * batchFrame),
		"transport_bytes_written_total":     uint64(batches * compFrame),
	}
	got := map[string]uint64{}
	for _, cs := range reg.Snapshot(false).Counters {
		if strings.HasPrefix(cs.Name, "transport_") {
			got[cs.Name] = cs.Value
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("transport counters = %v, want %v", got, want)
	}
	var gauges []obs.GaugeSnap
	for _, g := range reg.Snapshot(true).Gauges {
		if strings.HasPrefix(g.Name, "transport_") {
			gauges = append(gauges, g)
		}
	}
	if len(gauges) != 1 || gauges[0].Name != "transport_sessions_active_max" || gauges[0].Value != 1 {
		t.Errorf("transport gauges = %+v, want transport_sessions_active_max 1", gauges)
	}
	var edges [][3]int64
	for _, ev := range reg.Events() {
		if ev.Kind == EvSession {
			edges = append(edges, [3]int64{ev.A, ev.B, ev.C})
		}
	}
	if want := [][3]int64{{1, 1, 1}, {1, 0, 1}}; !reflect.DeepEqual(edges, want) {
		t.Errorf("session events (session, open, ns) = %v, want %v", edges, want)
	}
}
