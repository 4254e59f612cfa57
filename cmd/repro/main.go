// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro -list                 # enumerate experiments
//	repro -exp table1           # run one experiment
//	repro -exp faults           # the fault-injection sweep
//	repro -all                  # run everything (paper order)
//	repro -all -full            # full-scale populations (slower)
//	repro -all -parallel 1      # serial trial engine (output is identical)
//	repro -all -metrics table   # per-experiment metric dump (or: json)
//	repro -exp figure3 -trace out.jsonl   # event trace to JSONL
//	repro -all -listen :6060    # live /metrics + pprof during the run
//	repro -exp ttl -cpuprofile cpu.out -memprofile mem.out  # offline profiles
//
// Each experiment prints the paper's reported values next to the
// simulation's measured values so shapes can be compared directly.
// Independent trials fan across -parallel workers; the worker count only
// changes wall-clock time, never output — including -metrics dumps, which
// exclude wall-clock (volatile) series and are merged in trial order.
//
// -listen serves the cumulative run registry for the duration of the run:
// Prometheus text at /metrics, JSON at /metrics.json, the trace ring at
// /trace.jsonl, and net/http/pprof under /debug/pprof/. The server stops
// when the run finishes.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ftlhammer/internal/experiments"
	"ftlhammer/internal/obs"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		expID    = flag.String("exp", "", "run a single experiment by id")
		all      = flag.Bool("all", false, "run every experiment in paper order")
		full     = flag.Bool("full", false, "full-scale populations instead of quick mode")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"trial-engine workers; output is identical at any value")
		metrics = flag.String("metrics", "",
			"dump per-experiment metrics: 'table' (human) or 'json'")
		trace = flag.String("trace", "",
			"append the event trace to this JSONL file")
		listen = flag.String("listen", "",
			"serve live /metrics, /metrics.json, /trace.jsonl and /debug/pprof on this address during the run")
		checkpoint = flag.String("checkpoint", "",
			"persist completed trial results to this file so an interrupted run can resume")
		checkpointEvery = flag.Int("checkpoint-every", 1,
			"flush the checkpoint store after this many completed trials")
		resume = flag.Bool("resume", false,
			"resume from -checkpoint: completed trials replay from the store, only missing ones execute")
		cpuProf = flag.String("cpuprofile", "",
			"write a CPU profile of the run to this file (written on clean exit)")
		memProf = flag.String("memprofile", "",
			"write a heap profile to this file after the run (written on clean exit)")
	)
	flag.Parse()

	root, err := obs.FlagRegistry(*metrics, *trace)
	if err != nil {
		fatal(err)
	}
	if root == nil && *listen != "" {
		root = obs.NewRegistry()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // materialize the post-run live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}

	opt := experiments.Options{Quick: true, Workers: *parallel}
	if *full {
		opt.Quick = false
	}
	if *resume && *checkpoint == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *checkpoint != "" {
		ck, err := experiments.OpenCheckpoint(*checkpoint, *checkpointEvery, *resume)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := ck.Close(); err != nil {
				fatal(err)
			}
			if n := ck.Hits(); n > 0 {
				fmt.Fprintf(os.Stderr, "repro: %d trials resumed from %s\n", n, *checkpoint)
			}
		}()
		opt.Checkpoint = ck
	}

	r := &runner{
		opt:     opt,
		root:    root,
		metrics: *metrics,
		trace:   *trace,
	}
	if *listen != "" {
		// obs.Handler routes /metrics*, /trace.jsonl; the pprof import
		// registered /debug/pprof/ on http.DefaultServeMux.
		http.Handle("/", obs.Handler(r.root))
		go func() {
			if err := http.ListenAndServe(*listen, nil); err != nil {
				fmt.Fprintln(os.Stderr, "repro: listen:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "repro: serving metrics on http://%s/metrics (pprof under /debug/pprof/)\n", *listen)
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := obs.WriteTraceHeader(f); err != nil {
			fatal(err)
		}
		r.traceFile = f
	}

	switch {
	case *list:
		fmt.Printf("%-12s %-10s %s\n", "id", "ref", "title")
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %-10s %s\n", e.ID, e.Ref, e.Title)
		}
	case *expID != "":
		e, err := experiments.ByID(*expID)
		if err != nil {
			fatal(err)
		}
		r.runOne(e)
	case *all:
		for _, e := range experiments.All() {
			r.runOne(e)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runner executes experiments, optionally collecting observability output.
type runner struct {
	opt experiments.Options
	// root accumulates every experiment's registry for -listen; nil when
	// no observability flag is set.
	root      *obs.Registry
	metrics   string
	trace     string
	traceFile *os.File
}

func (r *runner) runOne(e experiments.Experiment) {
	opt := r.opt
	if opt.Checkpoint != nil {
		// Scope stored trial results to this experiment and restart its
		// fan-out numbering, so resume matches trials positionally.
		opt.Checkpoint.SetExperiment(e.ID)
	}
	// Each experiment gets a fresh registry so its dump covers exactly
	// its own trials; the cumulative root (served by -listen) receives a
	// merge afterwards.
	var reg *obs.Registry
	if r.root != nil {
		if r.root.Tracing() {
			reg = obs.NewTracing(r.root.TraceCap())
		} else {
			reg = obs.NewRegistry()
		}
		opt.Obs = reg
	}
	start := time.Now()
	if err := e.Run(os.Stdout, opt); err != nil {
		fatal(fmt.Errorf("%s (%s): %w", e.ID, e.Ref, err))
	}
	fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	if reg == nil {
		return
	}
	// Project main-goroutine worlds' stats (trial registries were flushed
	// on their workers already; Flush is idempotent for them).
	reg.Flush()
	// Deterministic snapshot: volatile (wall-clock) series excluded, so
	// this block is byte-identical at any -parallel value.
	snap := reg.Snapshot(false)
	switch r.metrics {
	case "table":
		fmt.Printf("--- metrics: %s ---\n", e.ID)
		if err := snap.WriteTable(os.Stdout); err != nil {
			fatal(err)
		}
	case "json":
		fmt.Printf("--- metrics: %s ---\n", e.ID)
		if err := snap.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if r.traceFile != nil {
		if err := obs.WriteEventsJSONL(r.traceFile, reg.Events()); err != nil {
			fatal(err)
		}
		if total, dropped := reg.TraceTotals(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "repro: %s: trace ring kept %d of %d events (oldest dropped)\n",
				e.ID, total-dropped, total)
		}
	}
	r.root.Merge(reg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
