package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ftlhammer/internal/obs"
	"ftlhammer/internal/transport"
)

// rawHello encodes a hello frame by hand, as docs/SERVING.md lays it out:
// payload length u32, type 1, then version u8, nsid u16, path u8 and
// window u16.
func rawHello(version byte, nsid uint16) []byte {
	return []byte{0, 0, 0, 6, 1, version, byte(nsid >> 8), byte(nsid), 0, 0, 0}
}

// countingListener counts the connections a member listener accepts.
type countingListener struct {
	net.Listener
	accepts *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestFrontendCloseCutsSilentHandshake: with a client connected that
// never sends its hello, ServeFrontend returns within a second of its
// context's cancellation instead of waiting out transport.HandshakeTimeout.
func TestFrontendCloseCutsSilentHandshake(t *testing.T) {
	f, err := New(Config{Spec: testSpec(1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feErr := make(chan error, 1)
	go func() { feErr <- f.ServeFrontend(ctx, countingListener{Listener: inner, accepts: &accepts}) }()
	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for deadline := time.Now().Add(10 * time.Second); accepts.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the frontend never accepted the connection")
		}
	}

	start := time.Now()
	cancel()
	select {
	case err := <-feErr:
		if !errors.Is(err, ErrFrontendClosed) {
			t.Errorf("ServeFrontend returned %v, want ErrFrontendClosed", err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("ServeFrontend returned %v after its context was canceled", took)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeFrontend did not return after its context was canceled")
	}
}

// TestFrontendAnswersBadHelloLikeMember: a hello of another protocol
// version gets the same StatusInvalid welcome from the frontend as from a
// member server, naming the version, instead of a silent close.
func TestFrontendAnswersBadHelloLikeMember(t *testing.T) {
	f, addr, _ := startFleet(t, Config{Spec: testSpec(1), Seed: 3})
	answer := func(addr string) []byte {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(rawHello(99, 1)); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	fe, member := answer(addr), answer(f.Member(0).Addr())
	const msg = "transport: protocol version 99, want 1"
	if len(fe) < 7 || fe[4] != 2 || transport.Status(fe[6]) != transport.StatusInvalid ||
		!bytes.Contains(fe, []byte(msg)) {
		t.Fatalf("frontend answered a version-99 hello with %d bytes %q, want a StatusInvalid welcome saying %q",
			len(fe), fe, msg)
	}
	if !bytes.Equal(fe, member) {
		t.Errorf("frontend answer %q differs from the member's %q", fe, member)
	}
	if st := f.Stats(); st.Refused != 1 || st.SessionsRouted != 0 {
		t.Errorf("refused %d, routed %d; want 1 and 0", st.Refused, st.SessionsRouted)
	}
}

// TestRoutedSessionMakesNoMemberConnection: the frontend hands routed
// sessions to the member's server in process, so no member listener
// accepts a connection for them.
func TestRoutedSessionMakesNoMemberConnection(t *testing.T) {
	f, err := New(Config{Devices: 2, Spec: testSpec(1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int64
	f.listen = func() (net.Listener, error) {
		ln, err := listenLoopback()
		return countingListener{ln, &accepts}, err
	}
	addr, stop := serveFleet(t, f)
	for tenant := 1; tenant <= 2; tenant++ {
		c, err := transport.Dial(context.Background(), addr, transport.ClientConfig{NSID: tenant})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, c.BlockBytes())
		payloadFor(buf, tenant, 0)
		if err := c.Write(context.Background(), 0, buf); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	stop()
	if n := accepts.Load(); n != 0 {
		t.Errorf("member listeners accepted %d connections for 2 routed sessions, want 0", n)
	}
	if got := f.Stats().SessionsRouted; got != 2 {
		t.Errorf("sessions routed = %d, want 2", got)
	}
}

// helloConn is a connection whose hello was already read off the wire:
// reads return the buffered hello first, so reading it never blocks, and
// then continue on the connection.
type helloConn struct {
	net.Conn
	r io.Reader
}

func (c *helloConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// TestSessionRoutedRightAfterStartIsAdmitted: a session routed the moment
// Start returns, before any member's Serve goroutine has run, is admitted
// and served. With one P and nothing that blocks between Start and the
// handoff's admission check, those goroutines cannot have run yet.
func TestSessionRoutedRightAfterStartIsAdmitted(t *testing.T) {
	f, err := New(Config{Spec: testSpec(1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type dialed struct {
		c   *transport.Client
		err error
	}
	dialDone := make(chan dialed, 1)
	go func() {
		c, err := transport.Dial(context.Background(), ln.Addr().String(), transport.ClientConfig{NSID: 1})
		dialDone <- dialed{c, err}
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	hello := make([]byte, len(rawHello(1, 1)))
	if _, err := io.ReadFull(conn, hello); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prev := runtime.GOMAXPROCS(1)
	if err := f.Start(ctx); err != nil {
		runtime.GOMAXPROCS(prev)
		t.Fatal(err)
	}
	f.route(&helloConn{Conn: conn, r: io.MultiReader(bytes.NewReader(hello), conn)}, new(transport.Handshakes))
	runtime.GOMAXPROCS(prev)

	d := <-dialDone
	if d.err != nil {
		t.Fatalf("session routed right after Start: %v", d.err)
	}
	defer d.c.Close()
	buf := make([]byte, d.c.BlockBytes())
	payloadFor(buf, 1, 7)
	if err := d.c.Write(ctx, 2, buf); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.SessionsRouted != 1 || st.Refused != 0 {
		t.Errorf("routed %d, refused %d; want 1 and 0", st.SessionsRouted, st.Refused)
	}
	d.c.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := f.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
}

// TestReceiveStartFailureInstallsNoRoutes: when the received member cannot
// start, none of the transfer's routes is installed, so its tenants stay
// unknown (refused) instead of pointing at the next member to land on
// that index, and a later transfer of the same tenants succeeds.
func TestReceiveStartFailureInstallsNoRoutes(t *testing.T) {
	spec := testSpec(2)
	const seed = 17
	bd, err := spec.Build(seed, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	hash := bd.Device.StateHash()
	var snap bytes.Buffer
	if err := bd.Device.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	dst, dstFE, _ := startFleet(t, Config{Devices: 1, Spec: spec, Seed: 99, Standby: true})
	routes := func() []Route { return []Route{{Tenant: 1, NSID: 1}, {Tenant: 2, NSID: 2}} }

	failing := errors.New("no loopback port left")
	dst.listen = func() (net.Listener, error) { return nil, failing }
	if _, err := dst.Receive(seed, hash, routes(), bytes.NewReader(snap.Bytes())); !errors.Is(err, failing) {
		t.Fatalf("Receive with a failing member start: %v, want %v", err, failing)
	}
	if got := dst.Table().Tenants(); len(got) != 0 {
		t.Errorf("a failed receive installed routes for tenants %v", got)
	}
	if got := dst.Devices(); got != 1 {
		t.Errorf("receiver has %d members after a failed receive, want 1", got)
	}
	_, err = transport.Dial(context.Background(), dstFE, transport.ClientConfig{NSID: 1})
	var remote *transport.RemoteError
	if !errors.As(err, &remote) || remote.Status != transport.StatusInvalid {
		t.Errorf("tenant 1 after a failed receive: %v, want an unknown-tenant refusal", err)
	}

	dst.listen = listenLoopback
	report, err := dst.Receive(seed, hash, routes(), bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("Receive after the failed one: %v", err)
	}
	if r, err := dst.Table().Lookup(2); err != nil || r.Device != report.Dst || r.State != RouteActive {
		t.Errorf("tenant 2 after the transfer: %+v, %v; want active on device %d", r, err, report.Dst)
	}
}
