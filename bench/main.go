// Command bench is ftlhammer's end-to-end benchmark. It runs four
// workloads, each in its own child process of this binary, checks every
// output against bench/testdata/goldens.json, and prints every metric by
// name and unit:
//
//	bash bench/run.sh                          # all four workloads
//	bash bench/run.sh -workload hammer -seed 3 # one workload
//	bash bench/run.sh -trace 1                 # traced run: the per-layer ledger
//	bash bench/run.sh -out a.jsonl             # also record results for compare
//	bash bench/run.sh compare a.jsonl -- b.jsonl
//	bash bench/run.sh -regen-goldens
//
// run.sh builds the binary from source and runs it from the repository
// root, where BENCHMARK.json is. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics. See
// bench/README.md for the workloads, the metrics and the A/A check.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// childTimeout bounds one workload's child process, so a hang still ends
// the run well inside its limit.
const childTimeout = 170 * time.Second

// options are the flags shared by the parent and its children.
type options struct {
	seed     uint64
	seconds  int
	trace    int
	traceOut string
}

// result is the last line's object.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one workload's result as -out stores it for compare: the
// result plus the numbers the result line may not carry (failed_frac and
// the served round-trip times).
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	var o options
	workload := flag.String("workload", "", "run one workload: attack-ttl, suite, hammer or served (default: all four)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed of the hammer and served inputs")
	flag.IntVar(&o.seconds, "seconds", 0, "measuring time per workload; whole units run while the next still fits, at least one (default: run_seconds in "+specPath+")")
	flag.IntVar(&o.trace, "trace", 0, "1 makes the traced run, which reports the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "where the traced run writes its spans (default .bench_build/trace-<workload>.jsonl)")
	out := flag.String("out", "", "append one JSON record per workload to this file, for compare")
	child := flag.String("child", "", "run one workload in this process and report to the parent (internal)")
	startup := flag.Bool("startup", false, "with -child: initialise and exit, so the parent can time start-up (internal)")
	regen := flag.Bool("regen-goldens", false, "rerun the experiments and the hammer workload and rewrite "+goldensPath)
	flag.Parse()
	if flag.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *regen:
		err = regenGoldens()
	case *child != "":
		err = runChildProcess(*child, o, *startup)
	default:
		names := workloadNames
		if *workload != "" {
			if _, err := newSystem(*workload); err != nil {
				fatal(err)
			}
			names = []string{*workload}
		}
		if o.seconds == 0 {
			spec, err := loadSpec(specPath)
			if err != nil {
				fatal(err)
			}
			o.seconds = spec.RunSeconds
		}
		err = runParent(names, o, *out)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runChildProcess runs one workload here and prints the report as JSON.
// With startup it stops once the workload is resolved.
func runChildProcess(wl string, o options, startup bool) error {
	gold, err := loadGoldens()
	if err != nil {
		return err
	}
	if startup {
		_, err := newSystem(wl)
		return err
	}
	r := &runner{seed: o.seed, budget: time.Duration(o.seconds) * time.Second, sz: defaultSizes(), gold: gold}
	if o.trace == 1 {
		r.tr = newTracer()
	}
	if err := r.runChild(wl); err != nil {
		return err
	}
	if r.tr != nil {
		if err := r.tr.write(o.traceOut); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(r.tr.spans), o.traceOut)
	}
	return json.NewEncoder(os.Stdout).Encode(r.res)
}

// runParent runs each workload in a child process, prints its metrics and
// ends with the result line. For several workloads the line's metric
// names are prefixed with the workload's.
func runParent(names []string, o options, out string) error {
	final := result{Correct: true, Metrics: map[string]value{}}
	for _, wl := range names {
		res, rec, err := runWorkload(wl, o)
		if err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		printTable(rec)
		if out != "" {
			if err := appendRecord(out, rec); err != nil {
				return err
			}
		}
		if len(names) == 1 {
			final = res
			break
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			final.Metrics[wl+"."+k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload runs one workload in a child process and builds its result
// line and record. The child's peak memory is read from outside, from the
// kernel's account of the finished process.
func runWorkload(wl string, o options) (result, record, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, record{}, err
	}
	traceOut := o.traceOut
	if o.trace == 1 && traceOut == "" {
		traceOut = filepath.Join(".bench_build", "trace-"+wl+".jsonl")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", wl,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace),
		"-trace-out", traceOut)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, record{}, fmt.Errorf("child process: %w", err)
	}
	var cr childResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &cr); err != nil {
		return result{}, record{}, fmt.Errorf("child report: %w", err)
	}
	if len(cr.Units) == 0 {
		return result{}, record{}, fmt.Errorf("child report has no timed units")
	}
	if o.trace == 0 {
		if cr.StartupS, err = startupSeconds(exe, wl); err != nil {
			return result{}, record{}, err
		}
	}
	var maxRSS float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSS = float64(ru.Maxrss) * 1024 // Linux reports kilobytes
	}
	res := compose(cr, maxRSS, o.trace == 1)
	rec := record{Workload: wl, Seed: o.seed, Trace: o.trace, result: res}
	rec.Metrics = map[string]value{"failed_frac": {cr.failedFrac(), "ratio"}}
	for k, v := range res.Metrics {
		rec.Metrics[k] = v
	}
	for _, d := range servedExtras {
		if v, ok := cr.Extra[d.Name]; ok {
			rec.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	for _, p := range cr.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", wl, p)
	}
	return res, rec, nil
}

// startups is how many times startupSeconds starts the binary.
const startups = 15

// startupSeconds is the median host time from starting the benchmark
// binary to its exit when it only initialises (the Go runtime, the
// program's packages, the goldens) and resolves the workload. It is the
// set-up that comes before any workload code, and where work moved into
// package initialisation shows.
func startupSeconds(exe, wl string) (float64, error) {
	xs := make([]float64, startups)
	for i := range xs {
		cmd := exec.Command(exe, "-child", wl, "-startup")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("start-up run: %w", err)
		}
		xs[i] = time.Since(t0).Seconds()
	}
	return median(xs), nil
}

// compose turns a child's report into the result line: the end-to-end
// metrics from the untraced units, or the ledger for a traced run.
func compose(cr childResult, maxRSSBytes float64, traced bool) result {
	res := result{
		Correct:   len(cr.Problems) == 0 && cr.Failed == 0,
		Attempted: cr.Attempted,
		Failed:    cr.Failed,
		Metrics:   map[string]value{},
	}
	if traced {
		for _, d := range perLayer {
			res.Metrics[d.Name] = value{cr.Layer[d.Name], d.Unit}
		}
		return res
	}
	var walls, rates, allocs []float64
	for _, u := range cr.Units {
		walls = append(walls, u.WallS)
		rates = append(rates, float64(u.Commands)/u.WallS)
		allocs = append(allocs, float64(u.AllocB)/1e6)
	}
	vals := map[string]float64{
		"setup_s":    cr.StartupS + median(cr.SetupS),
		"wall_s":     median(walls),
		"cmds_per_s": median(rates),
		"max_rss_mb": maxRSSBytes / 1e6,
		"alloc_mb":   median(allocs),
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	return res
}

// printTable prints one workload's metrics for a reader.
func printTable(rec record) {
	fmt.Printf("== %s (seed %d, trace %d): correct=%v, %d of %d operations failed\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Failed, rec.Attempted)
	defs := endToEnd
	if rec.Trace == 1 {
		defs = perLayer
	}
	defs = append(append([]metricDef{{"failed_frac", "ratio"}}, defs...), servedExtras...)
	for _, d := range defs {
		if v, ok := rec.Metrics[d.Name]; ok {
			fmt.Printf("   %-34s %16.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
