package main

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// toySizes shrink every workload so each case runs in a few seconds.
func toySizes() sizes {
	return sizes{
		experiments:    []string{"prob", "victims"},
		hammerIters:    1000,
		hammerBindings: 8,
		servedCmds:     2000,
		isoOps:         512,
		isoReps:        5,
	}
}

func sortedNames[T any](items []T, name func(T) string) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = name(it)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: got %v, want %v", what, got, want)
	}
}

// TestSpecMatchesCode pins BENCHMARK.json to the metric and workload lists
// the benchmark reports.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "workloads",
		sortedNames(spec.Workloads, func(w specWorkload) string { return w.Name }),
		sortedNames(workloadNames, func(s string) string { return s }))
	defName := func(d metricDef) string { return d.Name + " " + d.Unit }
	specName := func(m specMetric) string { return m.Name + " " + m.Unit }
	sameNames(t, "end_to_end", sortedNames(spec.EndToEnd, specName), sortedNames(endToEnd, defName))
	sameNames(t, "per_layer", sortedNames(spec.PerLayer, specName), sortedNames(perLayer, defName))
}

// TestSmoke runs every workload but attack-ttl at toy size, untraced and
// traced, and checks that each run is correct and reports exactly the
// metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	gold, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"suite", "hammer", "served"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, traced), func(t *testing.T) {
				r := &runner{seed: defaultSeed, budget: time.Nanosecond, sz: toySizes(), gold: gold}
				want := spec.EndToEnd
				if traced {
					r.tr = newTracer()
					want = spec.PerLayer
				}
				if err := r.runChild(wl); err != nil {
					t.Fatal(err)
				}
				res := compose(r.res, 1, traced)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, r.res.Problems)
				}
				var got []string
				for name, v := range res.Metrics {
					got = append(got, name+" "+v.Unit)
				}
				sort.Strings(got)
				sameNames(t, "metrics", got, sortedNames(want, func(m specMetric) string { return m.Name + " " + m.Unit }))
			})
		}
	}
}
