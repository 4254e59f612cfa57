package nvme

import "ftlhammer/internal/ftl"

// CommandRecord is the replay-trace view of one command as it entered
// the device: enough to re-execute it exactly, nothing more. Every
// admitted command is recorded — including ones that will fail with an
// out-of-range or read-only error, since those completions are part of
// the behavior a replay must reproduce.
type CommandRecord struct {
	// Tick is the virtual time at submission (informational; replay
	// re-derives timing from execution).
	Tick uint64
	// Origin is the submitting session (Command.Origin).
	Origin uint64
	// NSID is the target namespace id.
	NSID int
	Op   Opcode
	Path Path
	LBA  ftl.LBA
	// Data is a copy of the written block (writes only).
	Data []byte
}

// SetRecorder installs fn as the device's command observer; nil removes
// it. The recorder runs synchronously on the device's goroutine at the
// top of doContext, before any state changes, so a recorded trace
// replayed from the same starting state re-executes identically.
// internal/replay.Recorder is the standard JSONL implementation.
func (d *Device) SetRecorder(fn func(CommandRecord)) { d.rec = fn }
