package transport

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// handoff hands the server half of a fresh pipe to srv.Handoff, as a fleet
// frontend does once it has read the client's hello, and reads the welcome
// on the client half. It returns what Handoff reported and the session as
// a Client, or the refusal as a *RemoteError.
func handoff(t *testing.T, srv *Server, h Hello) (bool, *Client, error) {
	t.Helper()
	client, server := net.Pipe()
	admitted := make(chan bool, 1)
	go func() { admitted <- srv.Handoff(server, h) }()
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := readFrame(client, 64+maxMsgLen)
	if err != nil || typ != frameWelcome {
		t.Fatalf("welcome: typ=%d err=%v", typ, err)
	}
	client.SetReadDeadline(time.Time{})
	w, err := parseWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	ok := <-admitted
	if w.Status != StatusOK {
		client.Close()
		return ok, nil, &RemoteError{Status: w.Status, Msg: w.Msg}
	}
	t.Cleanup(func() { client.Close() })
	return ok, &Client{
		conn:       client,
		sessionID:  w.SessionID,
		blockBytes: int(w.BlockBytes),
		numLBAs:    w.NumLBAs,
		window:     int(w.Window),
	}, nil
}

// TestHandoffBeforeServeIsAdmitted: a session handed off before Serve has
// started is admitted, not refused, and is served once Serve runs. A
// frontend hands sessions to a member whose Serve goroutine may not have
// been scheduled yet.
func TestHandoffBeforeServeIsAdmitted(t *testing.T) {
	dev, _ := newTestDevice(t, 15, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 8})
	ok, c, err := handoff(t, srv, Hello{NSID: 1, Window: 4})
	if err != nil || !ok {
		t.Fatalf("handoff before Serve: admitted=%v err=%v", ok, err)
	}
	if c.window != 4 || c.NumLBAs() == 0 || c.BlockBytes() != dev.BlockBytes() {
		t.Errorf("welcome: window %d, %d LBAs, %d-byte blocks", c.window, c.NumLBAs(), c.BlockBytes())
	}
	_, stop := startServer(t, srv)
	buf := make([]byte, c.BlockBytes())
	buf[0] = 0xAB
	if err := c.Write(context.Background(), 5, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, c.BlockBytes())
	if mapped, err := c.Read(context.Background(), 5, got); err != nil || !mapped || got[0] != 0xAB {
		t.Fatalf("read back: mapped=%v err=%v byte %#x", mapped, err, got[0])
	}
	c.Close()
	stop()
	if st := dev.Namespaces()[0].Stats(); st.Writes != 1 || st.Reads != 1 {
		t.Errorf("namespace saw %d writes and %d reads, want 1 and 1", st.Writes, st.Reads)
	}
}

// TestHandoffBeforeServeWaitsForServe: a session handed off before Serve
// does not touch the device until Serve has taken the device's clock
// over. Its batch waits, with the namespace's counters and the virtual
// clock unmoved, and completes once Serve starts.
func TestHandoffBeforeServeWaitsForServe(t *testing.T) {
	dev, _ := newTestDevice(t, 20, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 8})
	ok, c, err := handoff(t, srv, Hello{NSID: 1})
	if err != nil || !ok {
		t.Fatalf("handoff before Serve: admitted=%v err=%v", ok, err)
	}
	ns := dev.Namespaces()[0]
	stats, clock := ns.Stats(), dev.Clock().Now()
	if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: 3, Tag: 7}); err != nil {
		t.Fatal(err)
	}
	ringErr := make(chan error, 1)
	go func() {
		_, err := c.Ring(context.Background())
		ringErr <- err
	}()
	select {
	case err := <-ringErr:
		t.Fatalf("Ring returned (err %v) before Serve started", err)
	case <-time.After(100 * time.Millisecond):
	}
	if got := ns.Stats(); got != stats {
		t.Errorf("namespace counters moved before Serve: %+v, was %+v", got, stats)
	}
	if now := dev.Clock().Now(); now != clock {
		t.Errorf("device clock moved before Serve: %d, was %d", now, clock)
	}

	_, stop := startServer(t, srv)
	if err := <-ringErr; err != nil {
		t.Fatalf("Ring once Serve started: %v", err)
	}
	if comps := c.Completions(); len(comps) != 1 || comps[0].Tag != 7 || comps[0].Err != nil {
		t.Fatalf("completions %+v, want tag 7 without error", comps)
	}
	c.Close()
	stop()
	if st := ns.Stats(); st.Trims != 1 {
		t.Errorf("namespace saw %d trims, want 1", st.Trims)
	}
}

// TestServeAfterShutdownEndsHandedOffSession: Shutdown before Serve kicks
// a session handed off before it, and the later Serve serves it out and
// returns instead of waiting for it forever.
func TestServeAfterShutdownEndsHandedOffSession(t *testing.T) {
	dev, _ := newTestDevice(t, 16, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 8})
	ok, c, err := handoff(t, srv, Hello{NSID: 1})
	if err != nil || !ok {
		t.Fatalf("handoff: admitted=%v err=%v", ok, err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(context.Background(), ln) }()
	select {
	case err := <-serveErr:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never returned after a drain that preceded it")
	}
	if err := c.Trim(context.Background(), 1); err == nil {
		t.Error("command succeeded on a session the drain ended")
	}
}

// TestHandoffToDrainingServerIsRefused: once a drain has begun, a handoff
// is refused with StatusShutdown, the status clients retry on, and
// Handoff reports the refusal.
func TestHandoffToDrainingServerIsRefused(t *testing.T) {
	dev, _ := newTestDevice(t, 17, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 8})
	_, stop := startServer(t, srv)
	stop()
	ok, _, err := handoff(t, srv, Hello{NSID: 1})
	var remote *RemoteError
	if ok || !errors.As(err, &remote) || remote.Status != StatusShutdown {
		t.Fatalf("handoff to a drained server: admitted=%v err=%v, want a StatusShutdown refusal", ok, err)
	}
}

// TestHandoffAdmissionRules: a handed-off session meets the rules an
// accepted one does. An unknown namespace is refused, and handed-off and
// accepted sessions share the MaxSessions limit.
func TestHandoffAdmissionRules(t *testing.T) {
	dev, _ := newTestDevice(t, 18, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: 8, MaxSessions: 2})
	addr, _ := startServer(t, srv)

	var remote *RemoteError
	ok, _, err := handoff(t, srv, Hello{NSID: 9})
	if ok || !errors.As(err, &remote) || remote.Status != StatusInvalid ||
		!strings.Contains(remote.Msg, "no namespace 9") {
		t.Errorf("unknown namespace: admitted=%v err=%v, want StatusInvalid naming it", ok, err)
	}
	if _, _, err := handoff(t, srv, Hello{NSID: 1}); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(context.Background(), addr, ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ok, _, err = handoff(t, srv, Hello{NSID: 1})
	if ok || !errors.As(err, &remote) || !strings.Contains(remote.Msg, "session limit 2") {
		t.Errorf("third session: admitted=%v err=%v, want the session limit", ok, err)
	}
}

// TestShutdownFlushesHandedOffBatch: a batch of a handed-off session that
// the server has read when Shutdown begins is executed, and its
// completions reach the client before Serve returns. The test holds the
// device mutex so the batch is still inside the server when the drain
// starts; a session opens under that mutex, so one round trip first
// makes sure the session is open. CI runs it under -race -count=20.
func TestShutdownFlushesHandedOffBatch(t *testing.T) {
	const batch = 8
	dev, _ := newTestDevice(t, 19, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: batch})
	_, stop := startServer(t, srv)
	ok, c, err := handoff(t, srv, Hello{NSID: 1})
	if err != nil || !ok {
		t.Fatalf("handoff: admitted=%v err=%v", ok, err)
	}
	if err := c.Trim(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	read := srv.bytesIn.Load()

	srv.devMu.Lock()
	locked := true
	defer func() {
		if locked {
			srv.devMu.Unlock()
		}
	}()
	buf := make([]byte, c.BlockBytes())
	for i := 0; i < batch; i++ {
		if err := c.Submit(nvme.Command{Op: nvme.OpWrite, LBA: ftl.LBA(i), Buf: buf, Tag: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ringErr := make(chan error, 1)
	go func() {
		_, err := c.Ring(context.Background())
		ringErr <- err
	}()
	waitFor(t, "the server to read the batch", func() bool { return srv.bytesIn.Load() > read })
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	waitFor(t, "the drain to begin", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.draining
	})
	srv.devMu.Unlock()
	locked = false

	if err := <-ringErr; err != nil {
		t.Fatalf("Ring across the drain: %v", err)
	}
	comps := c.Completions()
	if len(comps) != batch {
		t.Fatalf("%d completions, want %d", len(comps), batch)
	}
	for i, cp := range comps {
		if cp.Err != nil || cp.Tag != uint64(i) {
			t.Errorf("completion %d: tag %d err %v", i, cp.Tag, cp.Err)
		}
	}
	<-stopped
	if st := dev.Namespaces()[0].Stats(); st.Writes != batch {
		t.Errorf("device executed %d writes, want %d", st.Writes, batch)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
