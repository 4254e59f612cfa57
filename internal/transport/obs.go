package transport

import "ftlhammer/internal/obs"

// EvSession is the serving layer's trace event kind, a session lifecycle
// edge: session ID, opened (1) or closed (0), namespace ID. It is emitted
// under the server's device mutex, which serializes the registry's hot
// path across sessions.
const EvSession = "transport.session"

func init() {
	obs.RegisterEventKind(EvSession, "session", "open", "ns")
}

// serverStats is the device-mutex-owned counter block, projected into the
// registry at Flush (after Serve has returned and every session ended).
type serverStats struct {
	sessions   uint64 // sessions accepted
	active     int64  // currently open sessions
	activeMax  int64  // high watermark of active
	batches    uint64 // command batches served
	commands   uint64 // commands served
	connResets uint64 // fault-injected connection teardowns
}

// registerObs wires the server into its device's registry. All series are
// projected once at Flush; the caller flushes after Serve returns, when
// every session has ended (byte counters are atomics because sessions
// maintain them outside the device mutex).
func (s *Server) registerObs(r *obs.Registry) {
	r.OnFlush(func() {
		st := s.st
		r.Counter("transport_sessions_total").Add(st.sessions)
		r.Counter("transport_sessions_rejected_total").Add(s.rejected.Load())
		r.Counter("transport_batches_total").Add(st.batches)
		r.Counter("transport_commands_total").Add(st.commands)
		r.Counter("transport_conn_resets_total").Add(st.connResets)
		r.Counter("transport_bytes_read_total").Add(s.bytesIn.Load())
		r.Counter("transport_bytes_written_total").Add(s.bytesOut.Load())
		if st.activeMax > 0 {
			// Volatile: the watermark depends on wall-clock session overlap
			// (a new session's open can race the previous one's close), so
			// it stays out of deterministic snapshots.
			r.VolatileGauge("transport_sessions_active_max").SetMax(float64(st.activeMax))
		}
	})
}
