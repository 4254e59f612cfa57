// This file is the benchmark harness of deliverable
// (d): one testing.B benchmark per table and figure in the paper's
// evaluation. Each benchmark runs the corresponding experiment from
// internal/experiments and prints the paper-vs-measured rows (visible with
// `go test -bench=. -v` or in the -benchmem output stream).
//
// The benchmarks run the quick-mode experiments: same code paths and
// preserved result shapes, scaled populations. Run `go run ./cmd/repro
// -all -full` for full-scale numbers.
package ftlhammer

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ftlhammer/internal/experiments"
)

// benchOut routes experiment tables to the test log (visible with -v) and,
// when REPRO_STDOUT is set, to standard output.
func benchOut(b *testing.B) io.Writer {
	if os.Getenv("REPRO_STDOUT") != "" {
		return os.Stdout
	}
	return &testWriter{b}
}

type testWriter struct{ b *testing.B }

func (w *testWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// runExperiment executes one registered experiment b.N times with the
// default (GOMAXPROCS-wide) trial engine.
func runExperiment(b *testing.B, id string) {
	runExperimentWorkers(b, id, 0)
}

// runExperimentWorkers executes one experiment b.N times at a fixed
// trial-engine width.
func runExperimentWorkers(b *testing.B, id string, workers int) {
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	w := benchOut(b)
	opt := experiments.Options{Quick: true, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(w, opt); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkTable1MinimalRates regenerates Table 1: the minimal access rate
// that triggers bitflips per DRAM generation. Shape: measured thresholds
// track the reported rates; newer modules flip at lower rates.
func BenchmarkTable1MinimalRates(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure1L2PRedirect regenerates Figure 1: a double-sided hammer
// built from ordinary reads flips an L2P entry and redirects an LBA.
func BenchmarkFigure1L2PRedirect(b *testing.B) { runExperiment(b, "figure1") }

// BenchmarkFigure2AccessRates regenerates Figure 2: the host-FS path is
// too slow on the testbed; the direct attacker-VM path crosses the
// threshold.
func BenchmarkFigure2AccessRates(b *testing.B) { runExperiment(b, "figure2") }

// BenchmarkFigure3Ext4Exploit regenerates Figure 3: the end-to-end
// unprivileged information leak through ext4 indirect blocks.
func BenchmarkFigure3Ext4Exploit(b *testing.B) { runExperiment(b, "figure3") }

// BenchmarkSection32Escalation demonstrates the §3.2 privilege-escalation
// consequence of a single-bit translation corruption.
func BenchmarkSection32Escalation(b *testing.B) { runExperiment(b, "escalation") }

// BenchmarkSection41Calibration regenerates the §4.1 testbed numbers:
// 1 MiB L2P per GiB, 3 M/s flip threshold, x5 amplification operating
// point, ~32 cross-partition vulnerable triples.
func BenchmarkSection41Calibration(b *testing.B) { runExperiment(b, "calib") }

// BenchmarkSection42TimeToLeak regenerates the §4.2 observation: time to a
// useful flip stretches as spray coverage drops (the paper's 5% limit).
func BenchmarkSection42TimeToLeak(b *testing.B) { runExperiment(b, "ttl") }

// BenchmarkSection43Probability regenerates §4.3: ~7% per cycle, >50% by
// 10 cycles, Monte Carlo agreeing with the closed form.
func BenchmarkSection43Probability(b *testing.B) { runExperiment(b, "prob") }

// BenchmarkSection5Mitigations regenerates the §5 mitigation discussion as
// an ablation table.
func BenchmarkSection5Mitigations(b *testing.B) { runExperiment(b, "mitig") }

// BenchmarkDesignAblations runs the DESIGN.md §5 design-choice studies:
// hammer sidedness x row policy, half-double coupling, amplification
// factor, and L2P layout lookup cost.
func BenchmarkDesignAblations(b *testing.B) { runExperiment(b, "ablations") }

// BenchmarkTrialEngineSerial and BenchmarkTrialEngineParallel measure the
// same trial-heavy experiment (Table 1) at one worker versus the default
// GOMAXPROCS-wide pool. Their ns/op ratio is the engine's wall-clock
// speedup; the printed tables are byte-identical (see
// TestParallelOutputIdentical).
func BenchmarkTrialEngineSerial(b *testing.B)   { runExperimentWorkers(b, "table1", 1) }
func BenchmarkTrialEngineParallel(b *testing.B) { runExperimentWorkers(b, "table1", 0) }

// updateExperiments rewrites EXPERIMENTS.md's "Verbatim output" block from
// live output: go test -run TestAllExperimentsComplete . -update
var updateExperiments = flag.Bool("update", false, "rewrite the Verbatim output block of EXPERIMENTS.md from live output")

// completedLine matches the per-experiment footer cmd/repro prints; its
// wall time is masked when outputs are compared.
var completedLine = regexp.MustCompile(`^\[(\S+) completed in [^\]]*\]$`)

// verbatimBlock locates the fenced "Verbatim output" block of
// EXPERIMENTS.md: doc[start:end] is its body.
func verbatimBlock(t *testing.T, doc string) (start, end int) {
	const head, fence = "## Verbatim output\n", "\n```\n"
	start = strings.Index(doc, head)
	if start < 0 {
		t.Fatal("EXPERIMENTS.md has no Verbatim output block")
	}
	open := strings.Index(doc[start:], fence)
	if open < 0 {
		t.Fatal("EXPERIMENTS.md: Verbatim output has no fenced block")
	}
	start += open + len(fence)
	end = strings.Index(doc[start:], "```\n")
	if end < 0 {
		t.Fatal("EXPERIMENTS.md: Verbatim output block is not closed")
	}
	return start, start + end
}

// verbatimOutputs splits the block body into each experiment's output (the
// lines before its "[<id> completed in ...]" footer) and footer.
func verbatimOutputs(body string) (outputs, footers map[string]string) {
	outputs, footers = map[string]string{}, map[string]string{}
	var cur strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		if m := completedLine.FindStringSubmatch(strings.TrimSuffix(line, "\n")); m != nil {
			outputs[m[1]], footers[m[1]] = cur.String(), line
			cur.Reset()
			continue
		}
		cur.WriteString(line)
	}
	return outputs, footers
}

// TestAllExperimentsComplete runs every registered experiment end to end
// (quick mode) and pins its output: each must equal its part of
// EXPERIMENTS.md's "Verbatim output" block, with the "completed in" footer
// masked. The block is a -parallel 1 run of cmd/repro and this test runs
// each experiment at four workers, in parallel subtests, so a match also
// shows the output does not depend on the worker count. -update rewrites
// the block from live output, keeping the recorded footers.
func TestAllExperimentsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are long; skipped with -short")
	}
	raw, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start, end := verbatimBlock(t, doc)
	want, footers := verbatimOutputs(doc[start:end])
	all := experiments.All()
	got := make([]string, len(all))
	walls := make([]time.Duration, len(all))
	if *updateExperiments {
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			var b strings.Builder
			for i, e := range all {
				b.WriteString(got[i])
				if f, ok := footers[e.ID]; ok {
					b.WriteString(f)
				} else {
					fmt.Fprintf(&b, "[%s completed in %v]\n", e.ID, walls[i].Round(time.Millisecond))
				}
			}
			out := doc[:start] + b.String() + doc[end:]
			if err := os.WriteFile("EXPERIMENTS.md", []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	for i, e := range all {
		i, e := i, e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var out strings.Builder
			t0 := time.Now()
			if err := e.Run(&out, experiments.Options{Quick: true, Workers: 4}); err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Ref, err)
			}
			got[i], walls[i] = out.String(), time.Since(t0)
			if *updateExperiments {
				return
			}
			w, ok := want[e.ID]
			switch {
			case !ok:
				t.Errorf("EXPERIMENTS.md's Verbatim output block has no output for %s; run with -update", e.ID)
			case got[i] != w:
				t.Errorf("%s output differs from EXPERIMENTS.md's Verbatim output block (run with -update if intended):\n%s",
					e.ID, firstDifference(w, got[i]))
			}
		})
	}
}

// firstDifference renders the first differing line of two outputs.
func firstDifference(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "outputs differ"
}

// Example of using the registry programmatically.
func Example() {
	e, err := experiments.ByID("prob")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(e.Ref)
	// Output: §4.3
}
