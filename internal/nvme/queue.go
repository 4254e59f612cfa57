package nvme

import (
	"errors"

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
// work the device accepts: the network transport and in-process callers
// all build Commands and hand them to Device.Do or Device.DoBatch.
type Command struct {
	Op Opcode
	// NS is the target namespace; the caller must set it.
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

// ErrQueueFull reports a submission beyond a queue's depth (the
// transport client's inflight window).
var ErrQueueFull = errors.New("nvme: submission queue full")
