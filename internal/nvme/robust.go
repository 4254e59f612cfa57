package nvme

import (
	"context"
	"errors"
	"fmt"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/sim"
)

// Typed command-failure errors. Every submitted command completes with
// exactly one of these (or a lower-layer error passed through verbatim);
// see the completion-path invariants on Device.DoBatch.
var (
	// ErrTimeout reports a command whose service attempt exceeded the
	// per-attempt deadline even after all retries; the host gave up.
	ErrTimeout = errors.New("nvme: command deadline exceeded")
	// ErrAborted reports a command whose completion was lost (dropped
	// CQE) on its final attempt; the host aborted it at the deadline.
	ErrAborted = errors.New("nvme: command aborted (completion lost)")
	// ErrMediaFailure reports a command that kept hitting uncorrectable
	// NAND media errors until its retry budget ran out.
	ErrMediaFailure = errors.New("nvme: unrecoverable media failure")
	// ErrReadOnly reports a write or trim rejected because the device
	// degraded to read-only mode after too many media errors.
	ErrReadOnly = errors.New("nvme: device is in read-only mode")
)

// defaultDropTimeout bounds detection of a lost completion when no
// CommandTimeout is configured: the host cannot wait forever for a CQE
// that will never arrive.
const defaultDropTimeout = 10 * sim.Millisecond

// Robust configures the host-visible robustness policy: per-attempt
// deadlines, bounded exponential-backoff retries with jitter, and graceful
// degradation to read-only mode. The zero value disables the whole policy
// (the idealized always-succeeds device the repo modeled before faults
// existed); use DefaultRobust for a sensible enabled configuration.
type Robust struct {
	// CommandTimeout is the deadline applied to each service attempt
	// (re-issued commands re-arm it, as Linux's NVMe host timeout does).
	// Zero disables deadline enforcement, except that lost completions
	// are still detected after defaultDropTimeout.
	CommandTimeout sim.Duration
	// MaxRetries bounds re-issues after the first attempt.
	MaxRetries int
	// BackoffBase is the host-side delay before the first retry; each
	// further retry doubles it, capped at BackoffMax.
	BackoffBase sim.Duration
	// BackoffMax caps the exponential backoff (0 = uncapped).
	BackoffMax sim.Duration
	// BackoffJitter adds a uniform random extra delay in
	// [0, BackoffJitter*delay), drawn from the trial RNG stream, to
	// decorrelate retry storms. Zero disables jitter.
	BackoffJitter float64
	// DegradeThreshold is the number of attempt-level media errors after
	// which the device enters read-only mode (0 = never degrade).
	DegradeThreshold int
	// DegradeRecovery is the number of consecutive clean commands after
	// which read-only mode is exited (0 = read-only is permanent).
	DegradeRecovery int
}

// DefaultRobust returns the standard enabled policy used by the CLIs and
// the faults experiment.
func DefaultRobust() Robust {
	return Robust{
		CommandTimeout:   5 * sim.Millisecond,
		MaxRetries:       4,
		BackoffBase:      50 * sim.Microsecond,
		BackoffMax:       2 * sim.Millisecond,
		BackoffJitter:    0.5,
		DegradeThreshold: 64,
		DegradeRecovery:  256,
	}
}

// Enabled reports whether any part of the policy is configured.
func (r Robust) Enabled() bool { return r != (Robust{}) }

// RobustStats counts robustness-path activity.
type RobustStats struct {
	// Retries is the total number of command re-issues.
	Retries uint64
	// Timeouts counts per-attempt deadline expiries (including lost
	// completions detected by deadline).
	Timeouts uint64
	// DroppedCompletions counts injected CQE losses observed.
	DroppedCompletions uint64
	// MediaErrors counts attempt-level uncorrectable NAND errors.
	MediaErrors uint64
	// TimedOutCmds / AbortedCmds / MediaFailedCmds count commands whose
	// final completion was ErrTimeout / ErrAborted / ErrMediaFailure.
	TimedOutCmds    uint64
	AbortedCmds     uint64
	MediaFailedCmds uint64
	// ReadOnlyEntries / ReadOnlyExits count degradation transitions;
	// ReadOnlyRejects counts writes/trims refused while degraded.
	ReadOnlyEntries uint64
	ReadOnlyExits   uint64
	ReadOnlyRejects uint64
}

// RobustStats returns a copy of the robustness counters.
func (d *Device) RobustStats() RobustStats { return d.rstats }

// ReadOnly reports whether the device has degraded to read-only mode.
func (d *Device) ReadOnly() bool { return d.readOnly }

// robustOn reports whether the robustness path is active at all; when
// false, commands take the exact pre-faults fast path.
func (d *Device) robustOn() bool { return d.inj != nil || d.rob.Enabled() }

// backoff returns the host-side delay before the try-th retry (1-based):
// BackoffBase doubling per retry, capped at BackoffMax, plus uniform
// jitter from the device's retry RNG stream.
func (d *Device) backoff(try int) sim.Duration {
	b := d.rob.BackoffBase
	if b == 0 {
		return 0
	}
	for i := 1; i < try; i++ {
		if d.rob.BackoffMax > 0 && b >= d.rob.BackoffMax {
			break
		}
		b *= 2
	}
	if d.rob.BackoffMax > 0 && b > d.rob.BackoffMax {
		b = d.rob.BackoffMax
	}
	if j := d.rob.BackoffJitter; j > 0 && d.retryRNG != nil {
		b += sim.Duration(d.retryRNG.Float64() * j * float64(b))
	}
	return b
}

// noteMediaError records one attempt-level media error and enters
// read-only mode at the configured threshold.
func (d *Device) noteMediaError() {
	d.rstats.MediaErrors++
	d.cleanStreak = 0
	if d.rob.DegradeThreshold <= 0 {
		return
	}
	d.mediaErrs++
	if !d.readOnly && d.mediaErrs >= uint64(d.rob.DegradeThreshold) {
		d.readOnly = true
		d.rstats.ReadOnlyEntries++
		d.obs.Emit(uint64(d.clk.Now()), EvReadOnly, 1, int64(d.mediaErrs), 0)
	}
}

// noteRetries records how many retries a completed command took into the
// state-held distribution (checkpointed with the device, projected into
// the nvme_retries_per_command histogram at Flush — see registerObs).
func (d *Device) noteRetries(retries int) {
	if retries <= 0 {
		return
	}
	if d.retryDist == nil {
		d.retryDist = make(map[int]uint64)
	}
	d.retryDist[retries]++
}

// noteClean records one cleanly completed command and exits read-only
// mode after the configured recovery streak.
func (d *Device) noteClean() {
	if !d.readOnly {
		return
	}
	d.cleanStreak++
	if d.rob.DegradeRecovery > 0 && d.cleanStreak >= uint64(d.rob.DegradeRecovery) {
		d.readOnly = false
		d.mediaErrs = 0
		d.rstats.ReadOnlyExits++
		d.obs.Emit(uint64(d.clk.Now()), EvReadOnly, 0, 0, int64(d.cleanStreak))
		d.cleanStreak = 0
	}
}

// rejectIfReadOnly fails mutating commands while degraded.
func (d *Device) rejectIfReadOnly(op Opcode) error {
	if !d.readOnly {
		return nil
	}
	d.rstats.ReadOnlyRejects++
	return fmt.Errorf("nvme: %s rejected: %w", op, ErrReadOnly)
}

// robustly drives one command through the robustness state machine (see
// docs/FAULTS.md for the diagram):
//
//	issue -> [latency spike?] -> attempt -> classify:
//	  clean                      -> complete OK (counts toward recovery)
//	  dropped CQE                -> wait out deadline, abort attempt
//	  deadline blown             -> discard late result
//	  media error (errors.Is on  -> count toward degradation
//	    nand.ErrMediaRead/
//	    nand.ErrMediaProgram)
//	  any other error            -> complete with that error (not retryable)
//	retryable outcomes re-issue after exponential backoff with jitter,
//	up to MaxRetries; exhaustion completes with ErrAborted (drop),
//	ErrMediaFailure (media) or ErrTimeout (deadline), in that precedence.
//
// Each attempt re-runs serveOnce with the same opcode and buffer
// (admission is charged once, before the loop; each attempt re-runs only
// backend service). Taking the command's fields as plain parameters keeps
// the retry state pre-sized on the stack — no per-command closure.
//
// ctx carries caller cancellation: it is consulted before every retry
// re-issue (never mid-attempt — an attempt is one indivisible virtual-time
// unit), so a canceled caller completes the command with ctx.Err() instead
// of spending the remaining retry budget. A nil ctx never cancels.
func (d *Device) robustly(ctx context.Context, ns *Namespace, g ftl.LBA, op Opcode, buf []byte) (mapped bool, _ error) {
	maxAttempts := 1 + d.rob.MaxRetries
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	deadline := d.rob.CommandTimeout
	for try := 1; ; try++ {
		attemptStart := d.clk.Now()
		if hit, lat := d.inj.Decide(faults.KindLatency, uint64(g)); hit {
			d.clk.Advance(lat)
		}
		var err error
		mapped, err = d.serveOnce(ns, g, op, buf)
		dropped, _ := d.inj.Decide(faults.KindDropCompletion, uint64(g))
		if dropped {
			d.rstats.DroppedCompletions++
			// The CQE is lost: the host notices nothing until the
			// deadline fires, then aborts the attempt.
			dl := deadline
			if dl == 0 {
				dl = defaultDropTimeout
			}
			if end := attemptStart.Add(dl); d.clk.Now() < end {
				d.clk.AdvanceTo(end)
			}
		}
		elapsed := d.clk.Now().Sub(attemptStart)
		timedOut := dropped || (deadline > 0 && elapsed > deadline)
		mediaErr := err != nil &&
			(errors.Is(err, nand.ErrMediaRead) || errors.Is(err, nand.ErrMediaProgram))
		if mediaErr {
			d.noteMediaError()
		}
		if timedOut {
			d.rstats.Timeouts++
			d.obs.Emit(uint64(d.clk.Now()), EvTimeout, int64(g), int64(op), int64(elapsed))
		}
		if err == nil && !timedOut {
			d.noteRetries(try - 1)
			d.noteClean()
			return mapped, nil
		}
		if err != nil && !mediaErr {
			// Firmware/semantic errors (corrupt translation, forced
			// ECC, out-of-range) are not transient: retrying would
			// re-read the same poisoned state. Complete verbatim.
			return mapped, err
		}
		if try >= maxAttempts {
			d.noteRetries(try - 1)
			switch {
			case dropped:
				d.rstats.AbortedCmds++
				return mapped, fmt.Errorf("nvme: %s of LBA %d: %w after %d attempts", op, g, ErrAborted, try)
			case mediaErr:
				d.rstats.MediaFailedCmds++
				return mapped, fmt.Errorf("nvme: %s of LBA %d: %w after %d attempts (%v)", op, g, ErrMediaFailure, try, err)
			default:
				d.rstats.TimedOutCmds++
				return mapped, fmt.Errorf("nvme: %s of LBA %d: %w after %d attempts", op, g, ErrTimeout, try)
			}
		}
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				// The caller is gone; abandon the remaining retry budget.
				d.noteRetries(try - 1)
				return mapped, fmt.Errorf("nvme: %s of LBA %d: %w after %d attempts", op, g, cerr, try)
			}
		}
		d.rstats.Retries++
		delay := d.backoff(try)
		d.clk.Advance(delay)
		d.obs.Emit(uint64(d.clk.Now()), EvRetry, int64(g), int64(try), int64(delay))
	}
}
