package transport

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"ftlhammer/internal/nvme"
)

// TestProxyHelloRoundTrip: the hello a Client sends decodes through
// Handshakes.Read with every field intact, for both paths.
func TestProxyHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{NSID: 1, Path: nvme.PathDirect, Window: 0},
		{NSID: 0xFFFF, Path: nvme.PathHostFS, Window: 4096},
	} {
		a, b := net.Pipe()
		errc := make(chan error, 1)
		go func() {
			errc <- writeFrame(a, frameHello, appendHello(nil, hello{
				Version: ProtocolVersion,
				NSID:    uint16(h.NSID),
				Path:    pathByte(h.Path),
				Window:  uint16(h.Window),
			}))
		}()
		var hs Handshakes
		got, err := hs.Read(b, time.Second)
		if err != nil {
			t.Fatalf("Read(%+v): %v", h, err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("sending %+v: %v", h, err)
		}
		if got != h {
			t.Errorf("hello round trip: got %+v, want %+v", got, h)
		}
		a.Close()
		b.Close()
	}
}

// TestDialRejectsOutOfRange: a namespace ID or window the hello cannot
// carry fails before anything is dialed.
func TestDialRejectsOutOfRange(t *testing.T) {
	for _, cfg := range []ClientConfig{{NSID: 0x10000}, {NSID: 1, Window: -1}} {
		if _, err := Dial(context.Background(), "127.0.0.1:1", cfg); err == nil ||
			!strings.Contains(err.Error(), "out of wire range") {
			t.Errorf("Dial(%+v): %v, want an out-of-wire-range error", cfg, err)
		}
	}
}

// TestReadHelloRejectsBadFrames: wrong frame type, bad version, and a
// peer that never speaks all fail (the last via the handshake timeout).
func TestReadHelloRejectsBadFrames(t *testing.T) {
	t.Run("wrong type", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		go writeFrame(a, frameBye, nil)
		var hs Handshakes
		if _, err := hs.Read(b, time.Second); err == nil {
			t.Error("bye frame accepted as hello")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		go writeFrame(a, frameHello, appendHello(nil, hello{Version: ProtocolVersion + 1, NSID: 1}))
		answer := make(chan welcome, 1)
		go func() {
			_, payload, _ := readFrame(a, 64+maxMsgLen)
			w, _ := parseWelcome(payload)
			answer <- w
		}()
		var hs Handshakes
		if _, err := hs.Read(b, time.Second); err == nil {
			t.Error("future protocol version accepted")
		}
		b.Close() // ends the peer's read if no answer came
		// The peer learns why, as from a Server.
		if w := <-answer; w.Status != StatusInvalid || !strings.Contains(w.Msg, "protocol version") {
			t.Errorf("answer to a bad version: %+v, want StatusInvalid naming the version", w)
		}
	})
	t.Run("silent peer", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		done := make(chan error, 1)
		go func() {
			var hs Handshakes
			_, err := hs.Read(b, 20*time.Millisecond)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("silent peer: Read returned %v, want a deadline error", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("silent peer did not time out")
		}
	})
}

// TestReadClearsHandshakeDeadline: once the hello is read, the session's
// later reads are not bound by the handshake timeout.
func TestReadClearsHandshakeDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go writeFrame(a, frameHello, appendHello(nil, hello{Version: ProtocolVersion, NSID: 1}))
	var hs Handshakes
	if _, err := hs.Read(b, 250*time.Millisecond); err != nil {
		t.Fatalf("Read: %v", err)
	}
	time.Sleep(350 * time.Millisecond)
	go a.Write([]byte{1})
	if _, err := b.Read(make([]byte, 1)); err != nil {
		t.Errorf("read after the handshake timeout passed: %v", err)
	}
}

// TestRefuseSurfacesAsRemoteError: a frontend refusal decodes client-side
// exactly like a server rejection.
func TestRefuseSurfacesAsRemoteError(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go Refuse(a, StatusShutdown, "fleet: tenant 3 is migrating; retry")
	typ, payload, err := readFrame(b, 64+maxMsgLen)
	if err != nil {
		t.Fatal(err)
	}
	if typ != frameWelcome {
		t.Fatalf("frame type %d, want welcome", typ)
	}
	w, err := parseWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	if w.Status != StatusShutdown || w.Msg != "fleet: tenant 3 is migrating; retry" {
		t.Errorf("refusal decoded as %+v", w)
	}
	re := &RemoteError{Status: w.Status, Msg: w.Msg}
	var target *RemoteError
	if !errors.As(error(re), &target) {
		t.Fatal("refusal is not a RemoteError")
	}
}
