package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"ftlhammer/internal/faults"
)

// signalListener reports each connection it accepts on accepted.
type signalListener struct {
	net.Listener
	accepted chan struct{}
}

func (l signalListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// TestShutdownCutsSilentHandshake: a client that connects and never sends
// its hello does not hold Shutdown for HandshakeTimeout, and its
// connection is closed without an answer.
func TestShutdownCutsSilentHandshake(t *testing.T) {
	dev, _ := newTestDevice(t, 1, 1, faults.Plan{})
	srv := NewServer(dev, Config{})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := signalListener{Listener: inner, accepted: make(chan struct{}, 1)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(context.Background(), ln) }()
	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-ln.accepted

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Shutdown took %v with a silent client connected", took)
	}
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Errorf("silent client read %d bytes, %v; want a close without an answer", n, err)
	}
}

// TestHandshakesClose: Close expires the read deadline of a connection
// waiting for its hello, and a handshake that starts after Close gets
// that deadline at once.
func TestHandshakesClose(t *testing.T) {
	var hs Handshakes
	read := func(conn net.Conn) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := hs.Read(conn, 5*time.Second)
			done <- err
		}()
		return done
	}
	wait := func(what string, done chan error) {
		t.Helper()
		select {
		case err := <-done:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("%s: Read returned %v, want a deadline error", what, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: Read still waiting a second after Close", what)
		}
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := read(b)
	for registered := false; !registered; time.Sleep(time.Millisecond) {
		hs.mu.Lock()
		registered = len(hs.conns) == 1
		hs.mu.Unlock()
	}
	hs.Close()
	wait("started before Close", done)

	c, d := net.Pipe()
	defer c.Close()
	defer d.Close()
	wait("started after Close", read(d))
}
