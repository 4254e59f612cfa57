package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"ftlhammer/internal/nvme"
)

// Hello is the decoded client half of the handshake, exposed for routing
// frontends (internal/fleet) that must see which namespace a session wants
// before deciding which server gets the connection. The wire form stays
// private: Handshakes.Read decodes it, and Server.Handoff takes the
// decoded form.
type Hello struct {
	// NSID is the namespace the client asks to bind to. A fleet frontend
	// treats it as the fleet-wide tenant ID and rewrites it to the
	// device-local namespace before handing the session off.
	NSID int
	// Path is the submission cost model the session requests.
	Path nvme.Path
	// Window is the requested inflight window (0 = server default).
	Window int
}

// Handshakes tracks the connections still reading their hello, so that a
// drain cuts their wait short instead of leaving it to the handshake
// timeout: a connection either starts its handshake before Close and is
// expired by it, or starts after and is expired at once. The zero value
// is ready to use.
type Handshakes struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Read consumes exactly the hello frame from conn as a tracked
// handshake, with a read deadline of timeout from now, or of now once
// Close has run, and clears the deadline again before returning. A hello
// that is malformed, speaks another protocol version or names an unknown
// path is answered with a StatusInvalid welcome naming the problem; a
// read error or a frame of another type gets no answer. On any error the
// caller closes conn.
func (hs *Handshakes) Read(conn net.Conn, timeout time.Duration) (Hello, error) {
	hs.mu.Lock()
	if hs.conns == nil {
		hs.conns = make(map[net.Conn]struct{})
	}
	hs.conns[conn] = struct{}{}
	deadline := time.Now()
	if !hs.closed {
		deadline = deadline.Add(timeout)
	}
	conn.SetReadDeadline(deadline)
	hs.mu.Unlock()
	defer func() {
		hs.mu.Lock()
		delete(hs.conns, conn)
		conn.SetReadDeadline(time.Time{})
		hs.mu.Unlock()
	}()
	typ, payload, err := readFrame(conn, 64)
	if err != nil {
		return Hello{}, err
	}
	if typ != frameHello {
		return Hello{}, fmt.Errorf("%w: frame type %d, want hello", errMalformed, typ)
	}
	h, err := decodeHello(payload)
	if err != nil {
		Refuse(conn, StatusInvalid, err.Error())
		return Hello{}, err
	}
	return h, nil
}

// Close sets the read deadline of every connection in Read to now, so
// each one's Read fails at once, and makes every later Read do the same.
func (hs *Handshakes) Close() {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	hs.closed = true
	now := time.Now()
	for conn := range hs.conns {
		conn.SetReadDeadline(now)
	}
}

// decodeHello parses and validates a hello frame's payload.
func decodeHello(payload []byte) (Hello, error) {
	h, err := parseHello(payload)
	if err != nil {
		return Hello{}, err
	}
	if h.Version != ProtocolVersion {
		return Hello{}, fmt.Errorf("transport: protocol version %d, want %d", h.Version, ProtocolVersion)
	}
	path, err := pathOf(h.Path)
	if err != nil {
		return Hello{}, err
	}
	return Hello{NSID: int(h.NSID), Path: path, Window: int(h.Window)}, nil
}

// Refuse answers a handshake with a failure welcome — the same shape a
// Server uses to reject a session — and leaves closing the connection to
// the caller. Clients surface the status and message as a *RemoteError.
func Refuse(conn net.Conn, st Status, msg string) error {
	return writeFrame(conn, frameWelcome, appendWelcome(nil, welcome{
		Version: ProtocolVersion,
		Status:  st,
		Msg:     msg,
	}))
}
