package nvme

import (
	"context"
	"errors"
	"testing"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/sim"
)

// robustDevice builds a one-namespace device with the given fault plan and
// robustness policy threaded through every layer, injector disarmed so the
// test controls when faults start.
func robustDevice(t *testing.T, plan faults.Plan, rob Robust) (*Device, *Namespace, *faults.Injector) {
	t.Helper()
	world := sim.NewWorld(11)
	inj := faults.New(plan, world)
	inj.Disarm()
	mem := dram.New(dram.Config{
		Geometry: dram.SmallGeometry(),
		Profile:  dram.InvulnerableProfile(),
		Seed:     11,
	}, world)
	flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency(), nand.WithFaults(inj))
	f, err := ftl.New(ftl.Config{NumLBAs: flash.Geometry().TotalPages() * 3 / 4}, mem, flash)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFaults(inj)
	dev := New(Config{Robust: rob, Faults: inj}, f, mem, flash, world)
	ns, err := dev.AddNamespace(f.NumLBAs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return dev, ns, inj
}

func TestBackoffBounds(t *testing.T) {
	rob := Robust{
		CommandTimeout: 5 * sim.Millisecond,
		MaxRetries:     8,
		BackoffBase:    100 * sim.Microsecond,
		BackoffMax:     sim.Millisecond,
		BackoffJitter:  0.5,
	}
	dev, _, _ := robustDevice(t, faults.Plan{}, rob)
	for try := 1; try <= 8; try++ {
		pure := rob.BackoffBase
		for i := 1; i < try && pure < rob.BackoffMax; i++ {
			pure *= 2
		}
		if pure > rob.BackoffMax {
			pure = rob.BackoffMax
		}
		for rep := 0; rep < 50; rep++ {
			got := dev.backoff(try)
			if got < pure || got > pure+sim.Duration(rob.BackoffJitter*float64(pure)) {
				t.Fatalf("backoff(%d) = %v outside [%v, %v+50%%]", try, got, pure, pure)
			}
		}
	}
	// Zero base means no delay at all.
	dev2, _, _ := robustDevice(t, faults.Plan{}, Robust{MaxRetries: 2})
	if got := dev2.backoff(3); got != 0 {
		t.Fatalf("backoff with zero base = %v, want 0", got)
	}
}

func TestTransientMediaErrorIsRetried(t *testing.T) {
	// Exactly one NAND read fails; the retry must succeed and the command
	// complete cleanly.
	plan := faults.Plan{}.With(faults.Rule{Kind: faults.KindNANDRead, Every: 1, Count: 1})
	dev, ns, inj := robustDevice(t, plan, DefaultRobust())
	if err := dev.Write(ns, 3, blockOf(dev, 0x3C), PathDirect); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	buf := make([]byte, dev.BlockBytes())
	if _, err := dev.Read(ns, 3, buf, PathDirect); err != nil {
		t.Fatalf("read with one transient media error: %v", err)
	}
	if buf[0] != 0x3C {
		t.Fatalf("retried read returned %#x, want 0x3C", buf[0])
	}
	rs := dev.RobustStats()
	if rs.Retries != 1 || rs.MediaErrors != 1 {
		t.Fatalf("stats %+v, want 1 retry and 1 media error", rs)
	}
	if rs.TimedOutCmds+rs.AbortedCmds+rs.MediaFailedCmds != 0 {
		t.Fatalf("clean retry recorded a failed command: %+v", rs)
	}
}

func TestMediaRetryExhaustion(t *testing.T) {
	// Every NAND read fails: the retry budget runs out and the command
	// completes with ErrMediaFailure.
	plan := faults.Plan{}.With(faults.Rule{Kind: faults.KindNANDRead, Every: 1})
	rob := DefaultRobust()
	rob.MaxRetries = 2
	dev, ns, inj := robustDevice(t, plan, rob)
	if err := dev.Write(ns, 0, blockOf(dev, 1), PathDirect); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	buf := make([]byte, dev.BlockBytes())
	_, err := dev.Read(ns, 0, buf, PathDirect)
	if !errors.Is(err, ErrMediaFailure) {
		t.Fatalf("err = %v, want ErrMediaFailure", err)
	}
	rs := dev.RobustStats()
	if rs.MediaFailedCmds != 1 || rs.Retries != 2 || rs.MediaErrors != 3 {
		t.Fatalf("stats %+v, want 1 failed cmd, 2 retries, 3 media errors", rs)
	}
}

func TestDeadlineExpiry(t *testing.T) {
	// Every attempt blows its deadline via an injected latency spike; the
	// command completes with ErrTimeout.
	plan := faults.Plan{}.With(faults.Rule{
		Kind: faults.KindLatency, Every: 1, Latency: 10 * sim.Millisecond,
	})
	rob := Robust{CommandTimeout: sim.Millisecond, MaxRetries: 2, BackoffBase: 10 * sim.Microsecond}
	dev, ns, inj := robustDevice(t, plan, rob)
	if err := dev.Write(ns, 0, blockOf(dev, 1), PathDirect); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	buf := make([]byte, dev.BlockBytes())
	_, err := dev.Read(ns, 0, buf, PathDirect)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	rs := dev.RobustStats()
	if rs.TimedOutCmds != 1 || rs.Timeouts != 3 || rs.Retries != 2 {
		t.Fatalf("stats %+v, want 1 timed-out cmd, 3 attempt timeouts, 2 retries", rs)
	}
}

func TestDroppedCompletionAbort(t *testing.T) {
	// Every completion is lost: each attempt waits out the deadline, and
	// exhaustion completes the command with ErrAborted.
	plan := faults.Plan{}.With(faults.Rule{Kind: faults.KindDropCompletion, Every: 1})
	rob := Robust{CommandTimeout: sim.Millisecond, MaxRetries: 1, BackoffBase: 10 * sim.Microsecond}
	dev, ns, inj := robustDevice(t, plan, rob)
	inj.Arm()
	buf := make([]byte, dev.BlockBytes())
	start := dev.Clock().Now()
	_, err := dev.Read(ns, 0, buf, PathDirect)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	// The host must have waited out both attempts' deadlines.
	if elapsed := dev.Clock().Now().Sub(start); elapsed < 2*rob.CommandTimeout {
		t.Fatalf("aborted after %v, want >= 2 deadlines (%v)", elapsed, 2*rob.CommandTimeout)
	}
	rs := dev.RobustStats()
	if rs.AbortedCmds != 1 || rs.DroppedCompletions != 2 || rs.Retries != 1 {
		t.Fatalf("stats %+v, want 1 aborted cmd, 2 drops, 1 retry", rs)
	}
}

func TestDroppedCompletionRequeueSucceeds(t *testing.T) {
	// One lost completion, then clean: the requeued attempt completes the
	// command successfully after one deadline wait.
	plan := faults.Plan{}.With(faults.Rule{Kind: faults.KindDropCompletion, Every: 1, Count: 1})
	dev, ns, inj := robustDevice(t, plan, DefaultRobust())
	if err := dev.Write(ns, 5, blockOf(dev, 0x55), PathDirect); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	buf := make([]byte, dev.BlockBytes())
	if _, err := dev.Read(ns, 5, buf, PathDirect); err != nil {
		t.Fatalf("read with one dropped completion: %v", err)
	}
	if buf[0] != 0x55 {
		t.Fatalf("requeued read returned %#x, want 0x55", buf[0])
	}
	rs := dev.RobustStats()
	if rs.DroppedCompletions != 1 || rs.Retries != 1 || rs.AbortedCmds != 0 {
		t.Fatalf("stats %+v, want 1 drop, 1 retry, 0 aborts", rs)
	}
}

// TestCanceledBatchStopsRetrying checks the robust path's cancellation:
// under DoBatch with a canceled ctx, a command whose first attempt loses
// its completion completes with ctx.Err() after that one attempt instead
// of requeueing, and the rest of the batch still completes.
func TestCanceledBatchStopsRetrying(t *testing.T) {
	plan := faults.Plan{}.With(faults.Rule{Kind: faults.KindDropCompletion, Every: 1, Count: 1})
	dev, ns, inj := robustDevice(t, plan, DefaultRobust())
	if err := dev.Write(ns, 5, blockOf(dev, 0x55), PathDirect); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	buf := make([]byte, dev.BlockBytes())
	cs := dev.DoBatch(ctx, []Command{
		{Op: OpRead, NS: ns, Path: PathDirect, LBA: 5, Buf: buf},
		{Op: OpRead, NS: ns, Path: PathDirect, LBA: 5, Buf: buf},
	}, nil)
	if len(cs) != 2 {
		t.Fatalf("%d completions, want 2", len(cs))
	}
	if !errors.Is(cs[0].Err, ctx.Err()) {
		t.Fatalf("first completion err = %v, want %v", cs[0].Err, ctx.Err())
	}
	if cs[1].Err != nil || buf[0] != 0x55 {
		t.Fatalf("second completion err = %v, data %#x, want a clean read of 0x55", cs[1].Err, buf[0])
	}
	rs := dev.RobustStats()
	if rs.DroppedCompletions != 1 || rs.Retries != 0 || rs.AbortedCmds != 0 {
		t.Fatalf("stats %+v, want 1 drop, 0 retries, 0 aborts", rs)
	}
}

func TestReadOnlyEntryAndExit(t *testing.T) {
	// Two unretried media errors cross the degradation threshold; writes
	// are then rejected with ErrReadOnly until the recovery streak of
	// clean commands exits the mode.
	plan := faults.Plan{}.With(faults.Rule{Kind: faults.KindNANDRead, Every: 1, Count: 2})
	rob := Robust{MaxRetries: 0, DegradeThreshold: 2, DegradeRecovery: 3}
	dev, ns, inj := robustDevice(t, plan, rob)
	data := blockOf(dev, 7)
	for lba := ftl.LBA(0); lba < 4; lba++ {
		if err := dev.Write(ns, lba, data, PathDirect); err != nil {
			t.Fatal(err)
		}
	}
	inj.Arm()
	buf := make([]byte, dev.BlockBytes())
	for i := 0; i < 2; i++ {
		if _, err := dev.Read(ns, 0, buf, PathDirect); !errors.Is(err, ErrMediaFailure) {
			t.Fatalf("read %d: err = %v, want ErrMediaFailure", i, err)
		}
	}
	if !dev.ReadOnly() {
		t.Fatal("device not read-only after crossing the threshold")
	}
	if err := dev.Write(ns, 1, data, PathDirect); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write in read-only mode: err = %v, want ErrReadOnly", err)
	}
	if err := dev.Trim(ns, 1, PathDirect); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("trim in read-only mode: err = %v, want ErrReadOnly", err)
	}
	// Reads still work and count toward recovery (the plan is exhausted).
	for i := 0; i < 3; i++ {
		if _, err := dev.Read(ns, 2, buf, PathDirect); err != nil {
			t.Fatalf("clean read %d: %v", i, err)
		}
	}
	if dev.ReadOnly() {
		t.Fatal("device still read-only after the recovery streak")
	}
	if err := dev.Write(ns, 1, data, PathDirect); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	rs := dev.RobustStats()
	if rs.ReadOnlyEntries != 1 || rs.ReadOnlyExits != 1 || rs.ReadOnlyRejects != 2 {
		t.Fatalf("stats %+v, want 1 entry, 1 exit, 2 rejects", rs)
	}
}

func TestSemanticErrorsNotRetried(t *testing.T) {
	// A forced ECC-uncorrectable error on the L2P load is not transient:
	// it must pass through verbatim with no retries consumed.
	plan := faults.Plan{}.With(faults.Rule{Kind: faults.KindECCUncorrectable, Every: 1})
	dev, ns, inj := robustDevice(t, plan, DefaultRobust())
	if err := dev.Write(ns, 0, blockOf(dev, 1), PathDirect); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	buf := make([]byte, dev.BlockBytes())
	_, err := dev.Read(ns, 0, buf, PathDirect)
	var eccErr *dram.ECCError
	if !errors.As(err, &eccErr) {
		t.Fatalf("err = %v, want *dram.ECCError passed through", err)
	}
	if rs := dev.RobustStats(); rs.Retries != 0 {
		t.Fatalf("semantic error consumed %d retries, want 0", rs.Retries)
	}
}

func TestZeroPolicyKeepsFastPath(t *testing.T) {
	// No injector, zero Robust: the pre-faults path, with no robustness
	// state accumulating.
	dev, ns, _ := testDevice(t, nil)
	if dev.robustOn() {
		t.Fatal("robustness path active with zero config")
	}
	buf := blockOf(dev, 2)
	if err := dev.Write(ns, 0, buf, PathDirect); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Read(ns, 0, buf, PathDirect); err != nil {
		t.Fatal(err)
	}
	if rs := dev.RobustStats(); rs != (RobustStats{}) {
		t.Fatalf("robust stats accumulated on the fast path: %+v", rs)
	}
}
