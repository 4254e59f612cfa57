package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/nvme"
)

// pipeListener feeds pre-connected net.Pipe conns to a Server. net.Pipe
// supports deadlines and has no kernel buffering, which is exactly what a
// stalled-peer test needs: a write blocks until the peer reads or a
// deadline expires.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// dial hands the server half of a fresh pipe to the listener and returns
// the client half.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-time.After(10 * time.Second):
		t.Fatal("server never accepted the pipe")
	}
	return client
}

// handshake performs the hello/welcome exchange on a raw conn.
func handshake(t *testing.T, conn net.Conn, nsid, window int) welcome {
	t.Helper()
	if err := writeFrame(conn, frameHello, appendHello(nil, hello{
		Version: ProtocolVersion, NSID: uint16(nsid), Window: uint16(window),
	})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	typ, payload, err := readFrame(conn, 64+maxMsgLen)
	if err != nil || typ != frameWelcome {
		t.Fatalf("welcome: typ=%d err=%v", typ, err)
	}
	w, err := parseWelcome(payload)
	if err != nil || w.Status != StatusOK {
		t.Fatalf("welcome = %+v, %v", w, err)
	}
	return w
}

// sendFrame writes a frame on conn from its own goroutine and returns
// the write's result channel. net.Pipe writes are synchronous, so the
// result arrives only once the server has read the whole frame.
func sendFrame(conn net.Conn, typ byte, payload []byte) chan error {
	done := make(chan error, 1)
	go func() { done <- writeFrame(conn, typ, payload) }()
	return done
}

// awaitWrite waits for a sendFrame result, failing the test if the server
// has not read the frame within 10 s.
func awaitWrite(t *testing.T, what string, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: server never read the frame", what)
	}
}

// TestDrainWithStalledSession is the drain-deadlock regression: each
// session sends one window-sized batch and never reads its completions.
// The session serves the batch and then blocks writing its completions
// frame; without a drain write deadline that write never returns, the
// session never ends, and Shutdown hangs. With DrainGrace the write
// fails after the grace, the session ends, and graceful shutdown
// completes well inside the Shutdown context.
func TestDrainWithStalledSession(t *testing.T) {
	const (
		sessions = 2
		window   = 2
	)
	dev, _ := newTestDevice(t, 21, sessions, faults.Plan{})
	srv := NewServer(dev, Config{
		Window:     window,
		DrainGrace: 100 * time.Millisecond,
	})
	ln := newPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(context.Background(), ln) }()

	conns := make([]net.Conn, 0, sessions)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for nsid := 1; nsid <= sessions; nsid++ {
		conn := ln.dial(t)
		conns = append(conns, conn)
		handshake(t, conn, nsid, window)
		cmds := make([]wireCmd, window)
		for i := range cmds {
			cmds[i] = wireCmd{Op: byte(nvme.OpTrim), Tag: uint64(i), LBA: uint64(i)}
		}
		awaitWrite(t, fmt.Sprintf("ns %d batch", nsid), sendFrame(conn, frameBatch, appendBatch(nil, cmds)))
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown on stalled sessions: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("graceful drain took %v — stalled writes were not cut by DrainGrace", elapsed)
	}
	// Every command the sessions read was still served device-side: the
	// drain discards undeliverable completions, never work.
	var trims uint64
	for _, ns := range dev.Namespaces() {
		trims += ns.Stats().Trims
	}
	if want := uint64(sessions * window); trims != want {
		t.Errorf("device served %d trims, want %d", trims, want)
	}
}

// TestSessionHoldsOneBatch: a session reads its next batch only after it
// has written the previous batch's completions, so a peer that pipelines
// is held back by its own connection, not by server memory. Over
// net.Pipe, which buffers nothing, a peer that writes two batches without
// reading sees the second write wait until it reads the first
// completions frame, and the completions arrive in batch order.
func TestSessionHoldsOneBatch(t *testing.T) {
	const window = 4
	dev, _ := newTestDevice(t, 22, 1, faults.Plan{})
	srv := NewServer(dev, Config{Window: window})
	ln := newPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(context.Background(), ln) }()
	conn := ln.dial(t)
	defer conn.Close()
	handshake(t, conn, 1, window)

	// One-command batches, so the window would admit both at once.
	batch := func(tag uint64) []byte {
		return appendBatch(nil, []wireCmd{{Op: byte(nvme.OpTrim), Tag: tag, LBA: tag}})
	}
	awaitWrite(t, "first batch", sendFrame(conn, frameBatch, batch(1)))
	second := sendFrame(conn, frameBatch, batch(2))
	select {
	case err := <-second:
		t.Fatalf("the session read a second batch (write err %v) before its first completions were read", err)
	case <-time.After(100 * time.Millisecond):
	}
	for _, tag := range []uint64{1, 2} {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, payload, err := readFrame(conn, 1<<20)
		if err != nil || typ != frameCompletions {
			t.Fatalf("completions for batch %d: type %d, %v", tag, typ, err)
		}
		wcs, err := parseCompletionsInto(nil, payload)
		if err != nil || len(wcs) != 1 || wcs[0].Tag != tag || wcs[0].Status != StatusOK {
			t.Fatalf("completions frame %d = %+v, %v; want tag %d OK", tag, wcs, err, tag)
		}
		if tag == 1 {
			awaitWrite(t, "second batch", second)
		}
	}

	conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	if st := dev.Namespaces()[0].Stats(); st.Trims != 2 {
		t.Errorf("device served %d trims, want 2", st.Trims)
	}
}
