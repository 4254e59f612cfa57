package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"

	"ftlhammer/internal/transport"
)

// ErrFrontendClosed is returned by ServeFrontend after a graceful close,
// mirroring transport.ErrServerClosed.
var ErrFrontendClosed = errors.New("fleet: frontend closed")

// ServeFrontend accepts client sessions on ln and routes each to the
// member owning its tenant, speaking the unmodified transport protocol:
// the frontend reads the client hello (whose namespace ID is the
// fleet-wide tenant ID), resolves the route, and hands the connection,
// with the namespace rewritten to the device-local one, to the member's
// transport server in process (transport.Server.Handoff). From then on
// the member serves the session as if it had accepted it: the welcome,
// batches and completions cross only the client's connection.
//
// Sessions for migrating or moved tenants are refused with StatusShutdown
// (clients retry; moved refusals name the new instance), unknown tenants
// with StatusInvalid. A refusal is the only alternative to a correct
// route: the table flips a route to migrating before its device drains
// and back only after the restore is verified, so a session is never
// handed to a device that no longer (or does not yet) own the tenant's
// state.
//
// ServeFrontend returns ErrFrontendClosed once ctx is canceled and every
// handshake in progress has ended. Routed sessions belong to their
// members and end with the members' drain (Shutdown, or the cancellation
// of the context Start was given).
func (f *Fleet) ServeFrontend(ctx context.Context, ln net.Listener) error {
	f.feAddr.Store(ln.Addr().String())
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-stop:
		}
	}()
	// hs holds the connections still reading their hello.
	var hs transport.Handshakes
	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil {
				acceptErr = err
			}
			break
		}
		f.feWG.Add(1)
		go func() {
			defer f.feWG.Done()
			f.route(conn, &hs)
		}()
	}
	close(stop)
	// Cut every handshake still waiting for its hello short, so closing
	// does not wait out transport.HandshakeTimeout for a silent client.
	hs.Close()
	f.feWG.Wait()
	if acceptErr != nil {
		return acceptErr
	}
	return ErrFrontendClosed
}

// FrontendAddr returns the frontend's listen address ("" before
// ServeFrontend).
func (f *Fleet) FrontendAddr() string {
	if v := f.feAddr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// route runs one client connection's handshake: read the hello (tracked
// in hs), resolve the tenant, then hand the session to the
// owning member's server or refuse it.
func (f *Fleet) route(conn net.Conn, hs *transport.Handshakes) {
	h, err := hs.Read(conn, transport.HandshakeTimeout)
	if err != nil {
		f.refused.Add(1)
		conn.Close()
		return
	}
	r, err := f.table.Lookup(h.NSID)
	if err != nil {
		f.unknownTenants.Add(1)
		f.refuse(conn, transport.StatusInvalid, err.Error())
		return
	}
	switch r.State {
	case RouteMigrating:
		f.refuse(conn, transport.StatusShutdown,
			fmt.Sprintf("fleet: tenant %d is migrating; retry", r.Tenant))
		return
	case RouteMoved:
		f.refuse(conn, transport.StatusShutdown,
			fmt.Sprintf("fleet: tenant %d moved to %s", r.Tenant, r.MovedTo))
		return
	}
	// restartSource replaces a member's server, so read it under f.mu. A
	// server that began draining since the lookup (a migration racing
	// this handshake) refuses with StatusShutdown, and the retrying client
	// lands on the new route once the transfer completes.
	f.mu.Lock()
	srv := f.members[r.Device].srv
	f.mu.Unlock()
	if srv == nil {
		f.refuse(conn, transport.StatusShutdown,
			fmt.Sprintf("fleet: device %d is not serving", r.Device))
		return
	}
	h.NSID = r.NSID
	if srv.Handoff(conn, h) {
		f.routed.Add(1)
	} else {
		f.refused.Add(1)
	}
}

// refuse answers a handshake with a failure welcome and closes it.
func (f *Fleet) refuse(conn net.Conn, st transport.Status, msg string) {
	f.refused.Add(1)
	transport.Refuse(conn, st, msg)
	conn.Close()
}
