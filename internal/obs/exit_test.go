package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagRegistry checks the registry each -metrics/-trace pair asks for
// and the error a bad metrics mode gets.
func TestFlagRegistry(t *testing.T) {
	for _, tc := range []struct {
		metrics, trace string
		want           string
	}{
		{"", "", "none"},
		{"table", "", "plain"},
		{"json", "", "plain"},
		{"", "run.jsonl", "tracing"},
		{"table", "run.jsonl", "tracing"},
	} {
		r, err := FlagRegistry(tc.metrics, tc.trace)
		if err != nil {
			t.Fatalf("-metrics %q -trace %q: %v", tc.metrics, tc.trace, err)
		}
		got := "none"
		switch {
		case r.Tracing() && r.TraceCap() == 1<<16:
			got = "tracing"
		case r.Tracing():
			got = fmt.Sprintf("tracing into %d events", r.TraceCap())
		case r != nil:
			got = "plain"
		}
		if got != tc.want {
			t.Errorf("-metrics %q -trace %q: %s registry, want %s", tc.metrics, tc.trace, got, tc.want)
		}
	}
	if _, err := FlagRegistry("yaml", ""); err == nil || err.Error() != `-metrics must be 'table' or 'json', got "yaml"` {
		t.Errorf("-metrics yaml: error %v", err)
	}
}

// TestDumpExit checks the exit report: nothing for a nil registry, the
// table after a blank line or the JSON snapshot, the trace file with its
// header and the line naming it, and a trace file that cannot be created
// as an error.
func TestDumpExit(t *testing.T) {
	var out strings.Builder
	if err := DumpExit(&out, nil, "table", "run.jsonl"); err != nil || out.Len() != 0 {
		t.Fatalf("nil registry: err %v, wrote %q", err, out.String())
	}

	reg := NewTracing(4)
	reg.Counter("acts_total").Add(3)
	for i := 0; i < 6; i++ {
		reg.Emit(uint64(i), "k", 1, 2, 3)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := DumpExit(&out, reg, "table", path); err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("trace: 4 events written to %s (2 dropped from ring)\n", path)
	if s := out.String(); !strings.HasPrefix(s, "\n") || !strings.Contains(s, "acts_total") || !strings.HasSuffix(s, line) {
		t.Errorf("table report:\n%s", s)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 5 || !strings.Contains(lines[0], `"schema"`) || !strings.HasPrefix(lines[1], `{"t":2,"kind":"k"`) {
		t.Errorf("trace file:\n%s", data)
	}

	out.Reset()
	if err := DumpExit(&out, reg, "json", ""); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(out.String())) || !strings.Contains(out.String(), "acts_total") {
		t.Errorf("json report:\n%s", out.String())
	}

	if err := DumpExit(&out, reg, "", filepath.Join(t.TempDir(), "missing", "run.jsonl")); err == nil {
		t.Error("trace into a missing directory: no error")
	}
}
