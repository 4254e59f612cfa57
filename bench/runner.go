package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

const defaultSeed = 1

// Every run measures at least minSetups set-ups, so setup_s is a median
// even when one timed unit fills the run, and keeps adding set-ups until
// they add up to setupFloor (at most maxSetups), so a set-up of a few
// milliseconds is a median of many.
const (
	minSetups  = 3
	maxSetups  = 100
	setupFloor = 500 * time.Millisecond
)

// sizes fixes how much work one unit of each workload does. The smoke test
// shrinks them; the benchmark always uses defaultSizes.
type sizes struct {
	// experiments overrides a workload's experiment list (nil: default).
	experiments []string
	// hammerIters is the double-sided iterations per binding, over
	// hammerBindings bindings.
	hammerIters, hammerBindings int
	// servedCmds is the commands each served session issues per unit.
	servedCmds int
	// isoOps and isoReps size each layer-isolation case: the median over
	// isoReps reps of isoOps operations.
	isoOps, isoReps int
}

func defaultSizes() sizes {
	return sizes{
		hammerIters:    500_000,
		hammerBindings: 8,
		servedCmds:     500_000,
		isoOps:         20_000,
		isoReps:        7,
	}
}

// system is one workload's system under test. setup builds fresh state for
// the next unit (it is timed as setup_s), unit runs the timed work on it
// and returns the simulated commands it completed, and teardown releases
// it. traced selects the counters-and-spans configuration.
type system interface {
	setup(r *runner, traced bool) error
	unit(r *runner, traced bool) (commands uint64, err error)
	teardown(r *runner, traced bool) error
}

// unitSample is one timed unit.
type unitSample struct {
	WallS    float64 `json:"wall_s"`
	Commands uint64  `json:"commands"`
	AllocB   uint64  `json:"alloc_bytes"`
	Traced   bool    `json:"traced"`
}

// childResult is what a workload's child process reports to the parent.
type childResult struct {
	tally
	Problems []string           `json:"problems,omitempty"`
	SetupS   []float64          `json:"setup_s"`
	Units    []unitSample       `json:"units"`
	Layer    map[string]float64 `json:"layer,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`

	// StartupS is the binary's start-up time, which the parent measures
	// and adds to the median set-up.
	StartupS float64 `json:"-"`
}

// runner executes one workload in this process.
type runner struct {
	seed   uint64
	budget time.Duration
	sz     sizes
	gold   *goldens
	tr     *tracer // nil: untraced
	res    childResult
	// layer collects the traced unit's per-layer numbers.
	layer map[string]float64
	// extra collects untraced served numbers, one slice per name.
	extra map[string][]float64
}

// problem records a failed check.
func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.res.Problems = append(r.res.Problems, msg)
	fmt.Fprintln(os.Stderr, "bench: check failed:", msg)
}

// tracedUnits is a traced run's plan: the traced unit sits between two
// untraced ones, so warm-up favours neither side of trace_overhead_frac.
var tracedUnits = []bool{false, true, false}

// measure runs timed units until the next would overshoot the budget (at
// least one). A traced run instead follows tracedUnits; the traced unit's
// counts and spans feed the ledger. Every set-up and every unit starts
// after a forced collection, so garbage left by the previous step is not
// collected on the clock.
func (r *runner) measure(sys system) error {
	start := time.Now()
	for i := 0; ; i++ {
		traced := r.tr != nil && tracedUnits[i]
		if r.tr != nil {
			r.tr.trace = i
		}
		runtime.GC()
		t0 := time.Now()
		if err := sys.setup(r, traced); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.res.SetupS = append(r.res.SetupS, time.Since(t0).Seconds())

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t1 := time.Now()
		cmds, err := sys.unit(r, traced)
		wall := time.Since(t1)
		runtime.ReadMemStats(&m1)
		if terr := sys.teardown(r, traced); err == nil {
			err = terr
		}
		if err != nil {
			return err
		}
		r.res.Units = append(r.res.Units, unitSample{
			WallS:    wall.Seconds(),
			Commands: cmds,
			AllocB:   m1.TotalAlloc - m0.TotalAlloc,
			Traced:   traced,
		})
		if traced && cmds > 0 {
			r.layer["nvme.host_ns_per_cmd"] = float64(wall.Nanoseconds()) / float64(cmds)
		}
		if r.tr != nil {
			if i == len(tracedUnits)-1 {
				break
			}
			continue
		}
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(i+1) > r.budget {
			break
		}
	}
	// Top up the set-up samples after the timed units, so the extra
	// builds cannot raise the units' peak memory.
	for len(r.res.SetupS) < minSetups || (sum(r.res.SetupS) < setupFloor.Seconds() && len(r.res.SetupS) < maxSetups) {
		runtime.GC()
		t0 := time.Now()
		if err := sys.setup(r, false); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.res.SetupS = append(r.res.SetupS, time.Since(t0).Seconds())
		if err := sys.teardown(r, false); err != nil {
			return err
		}
	}
	return nil
}

// runChild runs one workload and fills r.res. With tracing on it also runs
// the layer-isolation phase and completes the ledger.
func (r *runner) runChild(wl string) error {
	sys, err := newSystem(wl)
	if err != nil {
		return err
	}
	if r.tr != nil {
		r.layer = map[string]float64{}
	}
	r.extra = map[string][]float64{}
	if err := r.measure(sys); err != nil {
		return fmt.Errorf("%s: %w", wl, err)
	}
	if len(r.extra) > 0 {
		r.res.Extra = map[string]float64{}
		for k, xs := range r.extra {
			r.res.Extra[k] = median(xs)
		}
	}
	if r.tr == nil {
		return nil
	}
	runtime.GC()
	if err := isolate(r); err != nil {
		return fmt.Errorf("layer isolation: %w", err)
	}
	var plain, traced []float64
	for _, u := range r.res.Units {
		if u.Traced {
			traced = append(traced, u.WallS)
		} else {
			plain = append(plain, u.WallS)
		}
	}
	r.layer["trace_overhead_frac"] = median(traced)/median(plain) - 1
	r.res.Layer = map[string]float64{}
	for _, d := range perLayer {
		r.res.Layer[d.Name] = r.layer[d.Name]
	}
	return nil
}

// newSystem resolves a workload name.
func newSystem(wl string) (system, error) {
	switch wl {
	case "attack-ttl":
		return &experimentWorkload{ids: []string{"ttl"}}, nil
	case "suite":
		var ids []string
		for _, id := range experimentIDs {
			if id != "ttl" {
				ids = append(ids, id)
			}
		}
		return &experimentWorkload{ids: ids}, nil
	case "hammer":
		return &hammerWorkload{}, nil
	case "served":
		return &servedWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", wl, workloadNames)
}

// workloadNames lists the workloads in the order one invocation runs them.
var workloadNames = []string{"attack-ttl", "suite", "hammer", "served"}
