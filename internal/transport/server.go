package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// ErrServerClosed is returned by Serve after a graceful drain (Shutdown or
// context cancellation), mirroring net/http.ErrServerClosed.
var ErrServerClosed = errors.New("transport: server closed")

// HandshakeTimeout bounds how long a fresh connection may take to send
// its hello, to a Server or to a routing frontend.
const HandshakeTimeout = 10 * time.Second

// Config tunes a Server. The zero value gets sensible defaults.
type Config struct {
	// Window bounds the commands in each session's batch, which are all
	// of its inflight commands: a session holds one batch at a time
	// (granted windows clamp client requests to it). Default 64, max 4096.
	Window int
	// MaxSessions caps concurrently open sessions; further handshakes are
	// rejected with StatusShutdown-like refusal (StatusInvalid + message).
	// Default 256.
	MaxSessions int
	// DrainGrace bounds how long a graceful drain waits for in-flight
	// completion frames to reach slow clients: beginDrain applies it as a
	// write deadline on every open session, so a peer that stopped
	// reading its socket cannot hold its session (and Shutdown) hostage.
	// Default 5s.
	DrainGrace time.Duration
	// Faults, when non-nil, drives KindConnReset connection faults: after
	// a served batch the injector may doom the session's connection,
	// modeling NVMe-oF link loss. Typically the same injector threaded
	// through the device (fault schedules stay on one world's streams).
	Faults *faults.Injector
}

func (c *Config) fillDefaults() {
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.Window > 4096 {
		c.Window = 4096
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
}

// batchBuffers is a session's working set on the wire path: the raw frame
// payload, its decoded wire commands, the device commands and
// completions, the encoded wire completions, the read-data blocks and the
// completions-frame scratch. A session owns one for its lifetime and
// reuses it batch after batch, so the steady-state batch path allocates
// nothing.
type batchBuffers struct {
	payload []byte
	wcmds   []wireCmd
	cmds    []nvme.Command
	comps   []nvme.Completion
	wcs     []wireCompletion
	// blocks are read-data buffers of one block each, reused in place
	// batch after batch.
	blocks [][]byte
	// frame is the encoded completions frame, grown to the session's
	// high-water mark.
	frame []byte
}

// block returns the i-th read buffer, allocating it on first use.
func (bb *batchBuffers) block(i, blockBytes int) []byte {
	for len(bb.blocks) <= i {
		bb.blocks = append(bb.blocks, make([]byte, blockBytes))
	}
	return bb.blocks[i]
}

// session is one connected tenant.
type session struct {
	id     uint32
	ns     *nvme.Namespace
	path   nvme.Path
	conn   net.Conn
	window int
	bb     batchBuffers
}

// Server exposes one *nvme.Device over TCP. Create with NewServer, run
// with Serve, stop with Shutdown (or by canceling Serve's context).
//
// The device must not be driven by anyone else while the server runs: the
// sessions take over the device's virtual-clock ownership for the
// duration of Serve (passing it between themselves under devMu) and hand
// it back when Serve returns.
type Server struct {
	dev *nvme.Device
	cfg Config
	reg *obs.Registry

	// started closes once Serve has handed the device's clock off to the
	// sessions; a session waits for it before it touches the device.
	// done closes once Serve has served out every session.
	started chan struct{}
	done    chan struct{}

	// devMu serializes device execution and st across sessions. Every
	// critical section ends with Clock.Handoff so the clock's race-build
	// owner guard follows the lock.
	devMu sync.Mutex
	// st is owned by devMu; read at Flush after quiesce.
	st serverStats

	mu       sync.Mutex
	ln       net.Listener
	sessions map[uint32]*session
	nextID   uint32
	draining bool
	serving  bool
	// live counts admitted sessions, accepted and handed-off alike, until
	// they end; Serve waits for it before it returns.
	live sync.WaitGroup

	rejected atomic.Uint64
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64

	// handshakes holds the accepted connections still reading their
	// hello; beginDrain closes it.
	handshakes Handshakes
}

// NewServer wraps a device. The device's world registry (if any) receives
// transport_* series at Flush and transport.* trace events live.
func NewServer(dev *nvme.Device, cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		dev:      dev,
		cfg:      cfg,
		reg:      dev.World().Obs,
		started:  make(chan struct{}),
		done:     make(chan struct{}),
		sessions: map[uint32]*session{},
	}
	if s.reg != nil {
		s.registerObs(s.reg)
	}
	return s
}

// Serve accepts sessions on ln until ctx is canceled or Shutdown is
// called, then drains inflight commands and returns ErrServerClosed. Any
// other listener error is returned verbatim. Serve may be called once.
// Sessions handed off (Handoff) are served too, and drained the same way.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	if s.serving {
		s.mu.Unlock()
		return errors.New("transport: Serve called twice")
	}
	s.serving = true
	s.ln = ln
	if s.draining {
		// Shutdown came first: accept nothing, but still serve out the
		// sessions handed off before it.
		ln.Close()
	}
	s.mu.Unlock()

	// The sessions become the device's clock owners for the run
	// (ownership passes between them with devMu; see serveBatch).
	s.dev.Clock().Handoff()
	close(s.started)

	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.beginDrain()
		case <-stopWatch:
		}
	}()

	var wg sync.WaitGroup
	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if !draining {
				acceptErr = err
			}
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(conn)
		}()
	}
	close(stopWatch)
	s.beginDrain()
	wg.Wait()
	s.live.Wait()
	close(s.done)
	if acceptErr != nil {
		return acceptErr
	}
	return ErrServerClosed
}

// beginDrain stops accepting and kicks every session: the read deadline
// ends a session waiting for its next batch at once, and the write
// deadline gives a batch already read DrainGrace to flush its completions
// — after that the write fails and the session ends, so a peer that
// stopped reading cannot wedge graceful Shutdown behind a blocked socket
// write. A connection still waiting for its hello gets the same read
// deadline, so a silent client cannot hold the drain for
// HandshakeTimeout.
func (s *Server) beginDrain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	ln := s.ln
	kick := make([]*session, 0, len(s.sessions))
	for _, se := range s.sessions {
		kick = append(kick, se)
	}
	grace := s.cfg.DrainGrace
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.handshakes.Close()
	now := time.Now()
	for _, se := range kick {
		se.conn.SetReadDeadline(now)
		se.conn.SetWriteDeadline(now.Add(grace))
	}
}

// Shutdown gracefully drains the server: no new sessions, inflight
// commands complete, completions flush, then Serve returns. If ctx expires
// first, remaining connections are force-closed and ctx's error returned.
// Shutdown before Serve marks the server closed; a later Serve accepts
// nothing, serves out the sessions handed off before it, and returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	started := s.serving
	s.mu.Unlock()
	s.beginDrain()
	if !started {
		return nil
	}
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for _, se := range s.sessions {
		se.conn.Close()
	}
	s.mu.Unlock()
	<-s.done
	return ctx.Err()
}

// reject answers a failed handshake and closes the connection.
func (s *Server) reject(conn net.Conn, st Status, msg string) {
	s.rejected.Add(1)
	_ = Refuse(conn, st, msg)
	conn.Close()
}

// serveConn runs one accepted connection: read its hello, then admit and
// run the session it asks for.
func (s *Server) serveConn(conn net.Conn) {
	h, err := s.handshakes.Read(conn, HandshakeTimeout)
	if err != nil {
		s.rejected.Add(1)
		conn.Close()
	} else if se := s.admit(conn, h); se != nil {
		s.run(se)
	}
}

// Handoff runs a session on conn, whose hello a routing frontend has
// already read (Handshakes.Read) and pointed at one of this server's
// namespaces.
// The session is admitted, windowed, drained and reset exactly like one
// Serve accepts. Handoff takes conn over and reports whether the session
// was admitted: a refused one is answered and closed, an admitted one runs
// on its own goroutine, and Serve waits for it. A session handed off
// before Serve starts is admitted; it waits for Serve before it touches
// the device.
func (s *Server) Handoff(conn net.Conn, h Hello) bool {
	se := s.admit(conn, h)
	if se != nil {
		go s.run(se)
	}
	return se != nil
}

// admit applies the admission rules to hello h: the namespace must exist,
// the server must not be draining and the session limit must not be
// reached. A refusal is answered and closes conn. An admitted session is
// registered, so a drain kicks it, and counted in live until run ends it.
func (s *Server) admit(conn net.Conn, h Hello) *session {
	ns, ok := s.dev.NamespaceByID(h.NSID)
	if !ok {
		s.reject(conn, StatusInvalid, fmt.Sprintf("transport: no namespace %d", h.NSID))
		return nil
	}
	window := h.Window
	if window <= 0 || window > s.cfg.Window {
		window = s.cfg.Window
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject(conn, StatusShutdown, "transport: server is draining")
		return nil
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.reject(conn, StatusInvalid, fmt.Sprintf("transport: session limit %d reached", s.cfg.MaxSessions))
		return nil
	}
	s.nextID++
	se := &session{
		id:     s.nextID,
		ns:     ns,
		path:   h.Path,
		conn:   conn,
		window: window,
	}
	s.sessions[se.id] = se
	s.live.Add(1)
	s.mu.Unlock()
	return se
}

// run serves an admitted session on the calling goroutine: the welcome,
// then one batch at a time until the session ends. It closes the
// connection when the session ends.
func (s *Server) run(se *session) {
	defer func() {
		s.mu.Lock()
		delete(s.sessions, se.id)
		s.mu.Unlock()
		se.conn.Close()
		s.live.Done()
	}()
	blockBytes := s.dev.BlockBytes()
	wpayload := appendWelcome(nil, welcome{
		Version:    ProtocolVersion,
		Status:     StatusOK,
		SessionID:  se.id,
		BlockBytes: uint32(blockBytes),
		NumLBAs:    se.ns.NumLBAs,
		Window:     uint16(se.window),
	})
	if err := writeFrame(se.conn, frameWelcome, wpayload); err != nil {
		return
	}

	<-s.started
	s.sessionEdge(se, 1)
	defer s.sessionEdge(se, 0)
	maxPayload := maxBatchPayload(se.window, blockBytes)
	for s.serveBatch(se, maxPayload, blockBytes) {
	}
}

// sessionEdge counts a session opening (open 1) or closing (open 0) and
// emits its transport.session event.
func (s *Server) sessionEdge(se *session, open int64) {
	s.devMu.Lock()
	if open == 1 {
		s.st.sessions++
		s.st.active++
		s.st.activeMax = max(s.st.activeMax, s.st.active)
	} else {
		s.st.active--
	}
	s.reg.Emit(uint64(s.dev.Clock().Now()), EvSession, int64(se.id), open, int64(se.ns.ID))
	s.dev.Clock().Handoff()
	s.devMu.Unlock()
}

// serveBatch reads one batch frame into the session's working set, runs
// its commands on the device under devMu and writes the completions
// frame. It reports whether the session goes on: a bye, a malformed or
// over-window batch, a connection error or an injected conn reset ends
// it. The peer's next batch stays in its socket until this one's
// completions are written, so TCP carries the backpressure.
func (s *Server) serveBatch(se *session, maxPayload, blockBytes int) bool {
	bb := &se.bb
	typ, payload, err := readFrameInto(se.conn, bb.payload, maxPayload)
	bb.payload = payload
	if err != nil || typ != frameBatch {
		// frameBye and malformed streams both end the session.
		return false
	}
	s.bytesIn.Add(uint64(frameHeaderLen + len(payload)))
	bb.wcmds, err = parseBatchInto(bb.wcmds[:0], payload, blockBytes)
	if err != nil || len(bb.wcmds) == 0 || len(bb.wcmds) > se.window {
		return false
	}
	bb.cmds = bb.cmds[:0]
	reads := 0
	for _, wc := range bb.wcmds {
		cmd := nvme.Command{
			Op:     nvme.Opcode(wc.Op),
			NS:     se.ns,
			Path:   se.path,
			LBA:    lbaOf(wc.LBA),
			Tag:    wc.Tag,
			Origin: uint64(se.id),
		}
		switch cmd.Op {
		case nvme.OpWrite:
			cmd.Buf = wc.Data
		case nvme.OpRead:
			cmd.Buf = bb.block(reads, blockBytes)
			reads++
		}
		bb.cmds = append(bb.cmds, cmd)
	}

	s.devMu.Lock()
	s.st.batches++
	s.st.commands += uint64(len(bb.cmds))
	bb.comps = s.dev.DoBatch(nil, bb.cmds, bb.comps[:0])
	reset, _ := s.cfg.Faults.Decide(faults.KindConnReset, uint64(se.id))
	if reset {
		s.st.connResets++
	}
	s.dev.Clock().Handoff()
	s.devMu.Unlock()

	bb.wcs = bb.wcs[:0]
	for i, cp := range bb.comps {
		st, msg := statusOf(cp.Err)
		wc := wireCompletion{Tag: cp.Tag, Status: st, Mapped: cp.Mapped, Msg: msg}
		if st == StatusOK && bb.cmds[i].Op == nvme.OpRead {
			wc.Data = bb.cmds[i].Buf
		}
		bb.wcs = append(bb.wcs, wc)
	}
	frame, start := beginFrame(bb.frame[:0], frameCompletions)
	frame = appendCompletions(frame, bb.wcs)
	bb.frame = endFrame(frame, start)
	if _, err := se.conn.Write(bb.frame); err != nil {
		return false
	}
	s.bytesOut.Add(uint64(len(bb.frame)))
	// Injected link loss: the batch completed device-side and its
	// completions went out, then the session dies under the client.
	return !reset
}
