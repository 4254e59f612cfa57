package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// compareMain implements `bench compare <A files> -- <B files>`: for each
// workload × metric recorded with -out (untraced records only) it prints
// both sides' medians and quartile spreads, the share of index-paired runs
// B wins, and a verdict. It exits 1 when any pairing regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	var aFiles, bFiles []string
	side := &aFiles
	for _, a := range args {
		if a == "--" {
			side = &bFiles
			continue
		}
		*side = append(*side, a)
	}
	if len(aFiles) == 0 || len(bFiles) == 0 {
		fmt.Fprintln(stderr, "usage: bench compare <A files> -- <B files>")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	a, err := loadRecords(aFiles)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadRecords(bFiles); err == nil {
			return printComparison(stdout, spec, a, b)
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 2
}

// loadRecords reads -out records, keeping untraced ones: workload → metric
// → values in file order.
func loadRecords(files []string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			var rec record
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s:%d: %w", path, line, err)
			}
			if rec.Trace != 0 {
				continue
			}
			m := out[rec.Workload]
			if m == nil {
				m = map[string][]float64{}
				out[rec.Workload] = m
			}
			for name, v := range rec.Metrics {
				m[name] = append(m[name], v.Value)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rule is how one metric is judged.
type rule struct {
	lowerBetter bool
	// bound is the share of A's median by which B may be worse; with
	// bounded false the metric has none (a regression then needs the
	// same evidence an improvement does).
	bound   float64
	bounded bool
	// anyIncrease marks a failure count: B regressed when its mean is
	// higher at all, so one failing run among passing ones shows.
	anyIncrease bool
}

// ruleFor takes a metric's bound from BENCHMARK.json. failed_frac allows
// no increase at all; the served round-trip times are unbounded.
func ruleFor(spec *benchSpec, name string) rule {
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			return rule{lowerBetter: m.Better == "lower", bound: m.Bound, bounded: true}
		}
	}
	if name == "failed_frac" {
		return rule{lowerBetter: true, anyIncrease: true}
	}
	return rule{lowerBetter: name != "rtt_samples"}
}

// verdict applies ROADMAP item 1(d) and choosing-metrics §8 to one
// workload × metric. Runs are paired by index. A failure count regresses
// on any increase of its mean. Otherwise B improved when it wins at
// least nine tenths of the pairs and the medians differ by more than A's
// quartile spread. Otherwise, where either side's relative spread exceeds
// the bound, the pairing is unresolved unless every B run beats every A
// run; else B regressed when its median is worse than A's by more than the
// bound.
func verdict(a, b []float64, r rule) (winFrac float64, v string) {
	better := func(x, y float64) bool {
		if r.lowerBetter {
			return x < y
		}
		return x > y
	}
	n := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch {
		case better(b[i], a[i]):
			wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	winFrac = float64(wins) / float64(n)
	medA, medB := median(a), median(b)
	q1, _, q3 := quartiles(a)
	gain := medB - medA // how much better B's median is
	if r.lowerBetter {
		gain = -gain
	}
	switch {
	case r.anyIncrease:
		if mean(b) > mean(a) {
			return winFrac, "regressed"
		}
		return winFrac, "no worse"
	case winFrac >= 0.9 && gain > q3-q1:
		return winFrac, "improved"
	case !r.bounded:
		if float64(losses)/float64(n) >= 0.9 && -gain > q3-q1 {
			return winFrac, "regressed"
		}
		return winFrac, "no worse"
	case max(relIQR(a), relIQR(b)) > r.bound:
		if allBetter(b, a, better) {
			return winFrac, "no worse"
		}
		return winFrac, "unresolved"
	case -gain > r.bound*abs(medA):
		return winFrac, "regressed"
	}
	return winFrac, "no worse"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

func printComparison(w io.Writer, spec *benchSpec, a, b map[string]map[string][]float64) int {
	order := map[string]int{"failed_frac": -1}
	for i, m := range endToEnd {
		order[m.Name] = i
	}
	for i, m := range servedExtras {
		order[m.Name] = len(endToEnd) + i
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA IQR\tB median\tB IQR\tB wins\tverdict\t")
	code := 0
	for _, wl := range workloadNames {
		var names []string
		for name := range a[wl] {
			if _, ok := b[wl][name]; ok {
				names = append(names, name)
			}
		}
		sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
		for _, name := range names {
			av, bv := a[wl][name], b[wl][name]
			win, v := verdict(av, bv, ruleFor(spec, name))
			if v == "regressed" {
				code = 1
			}
			qa1, _, qa3 := quartiles(av)
			qb1, _, qb3 := quartiles(bv)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.3g\t%.6g\t%.3g\t%.2f\t%s\t\n",
				wl, name, median(av), qa3-qa1, median(bv), qb3-qb1, win, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return code
}
