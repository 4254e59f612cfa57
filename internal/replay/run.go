package replay

import (
	"fmt"

	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// Trace event kinds emitted by replay runs (documented in
// docs/METRICS.md and docs/REPLAY.md).
const (
	// EvReplayRun is one completed replay: commands executed, commands
	// that completed with an error, the final state hash (as int64 bits).
	EvReplayRun = "replay.run"
	// EvReplayVerify is one hash verification after a replay: whether it
	// matched (1/0), the observed hash, the expected hash (as int64
	// bits).
	EvReplayVerify = "replay.verify"
)

func init() {
	obs.RegisterEventKind(EvReplayRun, "commands", "failed", "state_hash")
	obs.RegisterEventKind(EvReplayVerify, "ok", "got_hash", "want_hash")
}

// Result summarizes one replay run.
type Result struct {
	// Commands is the number of trace entries executed.
	Commands int
	// Errors holds one completion-error text per command, "" for clean
	// completions — the observable outcome stream a differential test
	// compares.
	Errors []string
	// Failed counts the non-"" entries of Errors.
	Failed int
	// StateHash is the device's state fingerprint after the last
	// command.
	StateHash uint64
}

// EntryError reports a trace entry that cannot be turned into a command
// for the target device — unknown namespace, wrong payload size. It
// means trace and device do not match; it is not a command failure
// (those complete and land in Result.Errors).
type EntryError struct {
	Index int // 0-based entry position
	Msg   string
}

func (e *EntryError) Error() string {
	return fmt.Sprintf("replay: entry %d: %s", e.Index, e.Msg)
}

// HashMismatchError reports a verified replay whose final state hash
// differs from the expected one.
type HashMismatchError struct{ Got, Want uint64 }

func (e *HashMismatchError) Error() string {
	return fmt.Sprintf("replay: state hash %#x, want %#x", e.Got, e.Want)
}

// Run re-executes a trace against dev, which must be in the trace's
// starting state: freshly built with the recording device's
// ConfigDigest, or restored from a checkpoint taken at the recording's
// start. Commands execute in order through the same Do path the
// originals took; completions with errors are captured, not fatal.
// A *EntryError aborts the run at the offending entry. Entry ticks are
// ignored: replay re-derives timing (use RunTimed when the recorded
// workload's behaviour depends on when commands were issued).
func Run(dev *nvme.Device, entries []Entry) (*Result, error) {
	return run(dev, entries, false)
}

// RunTimed re-executes a trace like Run, but advances the device clock
// to each entry's recorded Tick before issuing it (ticks are recorded
// at submission time, before any state changes). This reproduces the
// original timeline exactly, which matters for timing-sensitive
// workloads: a REF-synchronized hammer pattern sleeps to refresh
// boundaries between reads, and those sleeps exist only in the ticks.
// Entries whose tick is already in the past issue immediately.
func RunTimed(dev *nvme.Device, entries []Entry) (*Result, error) {
	return run(dev, entries, true)
}

func run(dev *nvme.Device, entries []Entry, timed bool) (*Result, error) {
	res := &Result{Errors: make([]string, 0, len(entries))}
	clk := dev.Clock()
	for i, e := range entries {
		cmd, err := e.command(dev, uint64(i))
		if err != nil {
			return nil, &EntryError{Index: i, Msg: err.Error()}
		}
		if timed && sim.Time(e.Tick) > clk.Now() {
			clk.AdvanceTo(sim.Time(e.Tick))
		}
		comp, err := dev.Do(cmd)
		if err != nil {
			// Submission-level rejection surfaces as the completion
			// status, exactly as Device.DoBatch treats it.
			comp.Err = err
		}
		res.Commands++
		if comp.Err != nil {
			res.Errors = append(res.Errors, comp.Err.Error())
			res.Failed++
		} else {
			res.Errors = append(res.Errors, "")
		}
	}
	res.StateHash = dev.StateHash()
	reg := dev.World().Obs
	reg.CounterAdd("replay_runs_total", 1)
	reg.CounterAdd("replay_commands_total", uint64(res.Commands))
	reg.CounterAdd("replay_failed_total", uint64(res.Failed))
	reg.Emit(uint64(dev.Clock().Now()), EvReplayRun,
		int64(res.Commands), int64(res.Failed), int64(res.StateHash))
	return res, nil
}

// Verify replays the trace and asserts the final state hash equals want,
// returning *HashMismatchError (alongside the full Result, for
// diagnosis) when it does not. This is the golden-replay gate: a checked
// -in trace plus its expected hash pins the simulation's behavior.
func Verify(dev *nvme.Device, entries []Entry, want uint64) (*Result, error) {
	res, err := run(dev, entries, false)
	if err != nil {
		return nil, err
	}
	reg := dev.World().Obs
	ok := int64(0)
	if res.StateHash == want {
		ok = 1
	}
	reg.Emit(uint64(dev.Clock().Now()), EvReplayVerify,
		ok, int64(res.StateHash), int64(want))
	if res.StateHash != want {
		return res, &HashMismatchError{Got: res.StateHash, Want: want}
	}
	return res, nil
}
