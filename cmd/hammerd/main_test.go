package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftlhammer/internal/replay"
)

// canceled returns a context that is already done, so run serves, drains
// immediately, and proceeds to its exit report.
func canceled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// brokenWriter fails every write, standing in for a stdout that went away
// (closed pipe) before the SIGTERM dump.
type brokenWriter struct{ writes int }

func (w *brokenWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errors.New("broken pipe")
}

func TestRunDrainExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(canceled(), []string{"-listen", "127.0.0.1:0", "-metrics", "table"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{"hammerd: serving", "hammerd: drained", "transport_sessions_total"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunBrokenStdoutExitsNonZero is the regression test for the bug
// where a failing exit-time dump (broken stdout) still exited 0: the
// metrics table is the run's product, so losing it must be a failure.
func TestRunBrokenStdoutExitsNonZero(t *testing.T) {
	var stderr bytes.Buffer
	out := &brokenWriter{}
	code := run(canceled(), []string{"-listen", "127.0.0.1:0", "-metrics", "table"}, out, &stderr)
	if code != 1 {
		t.Fatalf("run with broken stdout = %d, want 1", code)
	}
	if out.writes == 0 {
		t.Fatal("run never attempted to write its exit report")
	}
	if !strings.Contains(stderr.String(), "hammerd:") {
		t.Errorf("stderr missing failure report:\n%s", stderr.String())
	}
}

func TestRunFlagAndConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"bad metrics mode", []string{"-metrics", "csv"}, 1},
		{"bad profile", []string{"-profile", "granite"}, 1},
		{"zero tenants", []string{"-tenants", "0"}, 1},
		{"fault rate out of range", []string{"-fault-rate", "1.5"}, 1},
		{"negative amplify", []string{"-amplify", "-3"}, 1},
		{"bad placement", []string{"-devices", "2", "-placement", "mosaic"}, 1},
		{"bad pin", []string{"-devices", "2", "-placement", "pinned", "-pin", "garbage"}, 1},
		{"record in fleet mode", []string{"-devices", "2", "-record", "x.jsonl"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(canceled(), tc.args, &stdout, &stderr); code != tc.want {
				t.Errorf("run(%v) = %d, want %d; stderr:\n%s", tc.args, code, tc.want, stderr.String())
			}
		})
	}
}

// TestRunNaNFaultRateNamesTheFlag: a NaN rate once passed every range
// check and panicked in faults.New; the spec's Validate now rejects it
// with a message.
func TestRunNaNFaultRateNamesTheFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(canceled(), []string{"-fault-rate", "NaN"}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if want := "hammerd: fleet: fault rates must be in [0,1], got NaN and 0"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q, want %q", stderr.String(), want)
	}
}

// TestRunFleetDrainExitsZero: fleet mode comes up, drains on a done
// context, and its exit report carries the merged fleet metrics.
func TestRunFleetDrainExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(canceled(), []string{
		"-listen", "127.0.0.1:0", "-devices", "2", "-tenants", "2",
		"-admin", "127.0.0.1:0", "-metrics", "table",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{
		"serving fleet of 2 devices", "fleet admin on", "hammerd: drained",
		"fleet: routed=0", "fleet_sessions_routed_total", "fleet_devices",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunRecordWritesValidTrace: -record produces a parseable replay
// trace even for an idle run (header only, zero commands).
func TestRunRecordWritesValidTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cmds.jsonl")
	var stdout, stderr bytes.Buffer
	code := run(canceled(), []string{"-listen", "127.0.0.1:0", "-record", path}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := replay.ReadTrace(f)
	if err != nil {
		t.Fatalf("recorded trace does not parse: %v", err)
	}
	if len(entries) != 0 {
		t.Errorf("idle run recorded %d commands, want 0", len(entries))
	}
	if !strings.Contains(stdout.String(), "record: 0 commands") {
		t.Errorf("stdout missing record summary:\n%s", stdout.String())
	}
}
