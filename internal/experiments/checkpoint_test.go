package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ftlhammer/internal/obs"
)

// fakeExperiment is a two-phase trial fan-out with deterministic output,
// standing in for a real experiment. executed counts trials that
// actually ran (vs. being served from the checkpoint store).
func fakeExperiment(w io.Writer, opt Options, executed *atomic.Int64) error {
	type row struct {
		Trial int
		Value uint64
	}
	rows, err := runTrialsObs(opt, 7, func(i int, reg *obs.Registry) (row, error) {
		executed.Add(1)
		reg.CounterAdd("fake_trials_total", 1)
		return row{Trial: i, Value: uint64(i*i + 3)}, nil
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "phase1 trial=%d value=%d\n", r.Trial, r.Value)
	}
	names, err := runTrialsObs(opt, 4, func(i int, reg *obs.Registry) (string, error) {
		executed.Add(1)
		return fmt.Sprintf("t%d", i*11), nil
	})
	if err != nil {
		return err
	}
	for _, s := range names {
		fmt.Fprintf(w, "phase2 %s\n", s)
	}
	return nil
}

// TestCheckpointResumeByteIdentical is the interrupt-and-resume
// property: a run resumed from a (possibly torn) checkpoint store
// re-executes only the missing trials and produces byte-identical output
// at any worker count.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")

	// Full run, recording every trial.
	ck, err := OpenCheckpoint(path, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ck.SetExperiment("fake")
	var execA atomic.Int64
	var outA bytes.Buffer
	if err := fakeExperiment(&outA, Options{Workers: 1, Checkpoint: ck}, &execA); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if execA.Load() != 11 {
		t.Fatalf("full run executed %d trials, want 11", execA.Load())
	}

	// Interrupt: tear the last record mid-write.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Resume from a copy so each subtest sees the same torn store.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rpath := filepath.Join(t.TempDir(), "ck.bin")
			if err := os.WriteFile(rpath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			ck, err := OpenCheckpoint(rpath, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			ck.SetExperiment("fake")
			var execB atomic.Int64
			var outB bytes.Buffer
			if err := fakeExperiment(&outB, Options{Workers: workers, Checkpoint: ck}, &execB); err != nil {
				t.Fatal(err)
			}
			if err := ck.Close(); err != nil {
				t.Fatal(err)
			}
			if got := outB.String(); got != outA.String() {
				t.Errorf("resumed output diverges:\nfull:\n%s\nresumed:\n%s", outA.String(), got)
			}
			// Exactly the torn trial re-executes.
			if execB.Load() != 1 {
				t.Errorf("resumed run executed %d trials, want 1 (the torn record)", execB.Load())
			}
			if hits := ck.Hits(); hits != 10 {
				t.Errorf("resume served %d trials from the store, want 10", hits)
			}

			// A second resume from the repaired store executes nothing.
			ck2, err := OpenCheckpoint(rpath, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			ck2.SetExperiment("fake")
			var execC atomic.Int64
			var outC bytes.Buffer
			if err := fakeExperiment(&outC, Options{Workers: workers, Checkpoint: ck2}, &execC); err != nil {
				t.Fatal(err)
			}
			if err := ck2.Close(); err != nil {
				t.Fatal(err)
			}
			if outC.String() != outA.String() {
				t.Error("second resume output diverges")
			}
			if execC.Load() != 0 {
				t.Errorf("second resume executed %d trials, want 0", execC.Load())
			}
		})
	}
}

// TestCheckpointMetricsSkipResumedTrials pins the documented limitation:
// trials served from the store contribute nothing to the registry.
func TestCheckpointMetricsSkipResumedTrials(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	ck, err := OpenCheckpoint(path, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ck.SetExperiment("fake")
	var execA atomic.Int64
	reg := obs.NewRegistry()
	if err := fakeExperiment(io.Discard, Options{Workers: 2, Checkpoint: ck, Obs: reg}, &execA); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(reg, "fake_trials_total"); got != 7 {
		t.Fatalf("full run counted %d trials, want 7", got)
	}

	ck2, err := OpenCheckpoint(path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	ck2.SetExperiment("fake")
	var execB atomic.Int64
	reg2 := obs.NewRegistry()
	if err := fakeExperiment(io.Discard, Options{Workers: 2, Checkpoint: ck2, Obs: reg2}, &execB); err != nil {
		t.Fatal(err)
	}
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}
	if execB.Load() != 0 {
		t.Fatalf("resume executed %d trials, want 0", execB.Load())
	}
	if got := counterValue(reg2, "fake_trials_total"); got != 0 {
		t.Errorf("resumed registry counted %d trials, want 0 (resumed trials skip registry work)", got)
	}
}

// counterValue reads one counter from the registry's snapshot (0 when
// absent).
func counterValue(reg *obs.Registry, name string) uint64 {
	for _, c := range reg.Snapshot(false).Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestOpenCheckpointGarbageIsTornTail: a store full of garbage is
// treated as a torn tail (everything re-executes), never an error.
func TestOpenCheckpointGarbageIsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xFF}, 128), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := OpenCheckpoint(path, 1, true)
	if err != nil {
		t.Fatalf("garbage store: %v", err)
	}
	if len(ck.done) != 0 {
		t.Errorf("garbage store loaded %d records", len(ck.done))
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
}
