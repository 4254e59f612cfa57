package nvme

import (
	"errors"
	"fmt"

	"ftlhammer/internal/ftl"
)

// Opcode is an NVMe-style command opcode.
type Opcode int

const (
	// OpRead reads one logical block.
	OpRead Opcode = iota
	// OpWrite writes one logical block.
	OpWrite
	// OpTrim deallocates one logical block.
	OpTrim
)

func (o Opcode) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTrim:
		return "trim"
	default:
		return "invalid"
	}
}

// Command is one submission-queue entry. It is the single typed unit of
// work the device accepts: queue pairs, the network transport and direct
// callers all build Commands and hand them to Device.Do.
type Command struct {
	Op Opcode
	// NS is the target namespace. Queue pairs fill it from their binding;
	// direct Device.Do callers must set it.
	NS *Namespace
	// Path selects the submission cost model (direct vs host-FS).
	Path Path
	LBA  ftl.LBA
	// Buf receives data for OpRead and supplies it for OpWrite; it must
	// be one block.
	Buf []byte
	// Tag is an opaque caller cookie echoed in the completion.
	Tag uint64
	// Origin identifies the submitting session in recorded command
	// traces (the transport server sets it to the session id; zero for
	// in-process callers). It does not affect execution.
	Origin uint64
}

// Completion is one completion-queue entry.
type Completion struct {
	Tag uint64
	// Mapped reports (for OpRead) whether flash was touched.
	Mapped bool
	Err    error
}

// ErrQueueFull reports a submission beyond the queue depth.
var ErrQueueFull = errors.New("nvme: submission queue full")

// QueuePair is an asynchronous submission/completion queue bound to one
// namespace and path, in the style of io_uring or the NVMe driver queue
// pairs the paper's workload uses (§3.1).
type QueuePair struct {
	dev   *Device
	ns    *Namespace
	path  Path
	depth int
	sq    []Command
	cq    []Completion
}

// NewQueuePair creates a queue pair of the given depth.
func (d *Device) NewQueuePair(ns *Namespace, path Path, depth int) (*QueuePair, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("nvme: queue depth %d must be positive", depth)
	}
	return &QueuePair{dev: d, ns: ns, path: path, depth: depth}, nil
}

// Submit enqueues a command without executing it.
func (q *QueuePair) Submit(cmd Command) error {
	if len(q.sq) >= q.depth {
		return ErrQueueFull
	}
	q.sq = append(q.sq, cmd)
	return nil
}

// Ring processes every submitted command in order, filling the completion
// queue. It returns the number processed. (The simulation is synchronous
// under the hood; Ring is the "doorbell".) The batch's completions
// replace any the previous Ring left undrained, in the same reused slice.
//
// Completion-path invariants (audited for the fault-injection layer; the
// historical model silently assumed every command eventually succeeds):
//
//  1. Every submitted command yields exactly one Completion, in
//     submission order — even under injected faults. Lost completions
//     are modeled *inside* the device's robustness layer (the host-side
//     deadline detects the drop and aborts/requeues), so by the time
//     Ring returns, no command is outstanding.
//  2. A completion's Err is nil only if the command's data/mapping
//     effect is real. Failure is never silent: commands that exhaust the
//     retry budget complete with a typed error — ErrTimeout, ErrAborted,
//     ErrMediaFailure, or ErrReadOnly — and non-transient device errors
//     (ftl.CorruptMappingError, dram.ECCError, out-of-range) pass
//     through verbatim, matchable with errors.Is/errors.As.
//  3. Virtual time advances monotonically across the batch; retry
//     backoff and deadline waits are charged to the clock before the
//     next command is serviced, so completion timestamps (and all
//     derived metrics) are deterministic at any -parallel worker count.
func (q *QueuePair) Ring() int {
	n := len(q.sq)
	for i := range q.sq {
		q.sq[i].NS, q.sq[i].Path = q.ns, q.path
	}
	q.cq = q.dev.DoBatch(nil, q.sq, q.cq[:0])
	q.sq = q.sq[:0]
	return n
}

// Completions drains and returns the last Ring's completions, in
// submission order. The slice is reused: it is valid until the next Ring.
func (q *QueuePair) Completions() []Completion {
	out := q.cq
	q.cq = q.cq[:0]
	return out
}

// Depth returns the queue depth.
func (q *QueuePair) Depth() int { return q.depth }
