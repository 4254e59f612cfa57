package main

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"ftlhammer/internal/fleet"
	"ftlhammer/internal/transport"
)

// TestSessionFitsGrantedWindow runs a session whose -batch is larger than
// the window the server grants: every Ring must carry at most the granted
// window, so the session completes instead of failing Submit with a full
// submission queue.
func TestSessionFitsGrantedWindow(t *testing.T) {
	bd, err := fleet.DeviceSpec{Profile: "invulnerable", Tenants: 1}.Build(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(bd.Device, transport.Config{Window: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(context.Background(), ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-served; !errors.Is(err, transport.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	}()

	const batch, ops = 16, 100
	res := runSession(context.Background(), ln.Addr().String(),
		transport.ClientConfig{NSID: 1, Window: batch},
		sessionParams{ops: ops, batch: batch, pattern: "verify", blockBytes: bd.Device.BlockBytes(), grace: time.Second})
	if res.fatalErr != nil {
		t.Fatalf("session failed: %v", res.fatalErr)
	}
	if res.ops != ops || res.errs != 0 || res.corrupt != 0 {
		t.Fatalf("ops=%d errs=%d corrupt=%d, want %d ops and no errors", res.ops, res.errs, res.corrupt, ops)
	}
}
