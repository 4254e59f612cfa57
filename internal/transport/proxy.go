package transport

import (
	"fmt"
	"net"
	"time"

	"ftlhammer/internal/nvme"
)

// Hello is the decoded client half of the handshake, exposed for routing
// frontends (internal/fleet) that must see which namespace a session wants
// before deciding which server gets the connection. The wire form stays
// private: ReadHello decodes it, and Server.Handoff takes the decoded form.
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

// ReadHello consumes exactly the hello frame from conn, validating the
// protocol version and path byte. timeout bounds how long the peer may
// take to send it (the handshake deadline); the read deadline is cleared
// again before returning. A hello that is malformed, speaks another
// protocol version or names an unknown path is answered with a
// StatusInvalid welcome naming the problem; a read error or a frame of
// another type gets no answer. On any error the caller closes conn.
func ReadHello(conn net.Conn, timeout time.Duration) (Hello, error) {
	if timeout > 0 {
		conn.SetReadDeadline(time.Now().Add(timeout))
		defer conn.SetReadDeadline(time.Time{})
	}
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
