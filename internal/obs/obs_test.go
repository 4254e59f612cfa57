package obs

import (
	"strings"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(5)
	r.Gauge("g").SetMax(9)
	r.Histogram("h", ExpBuckets(1, 2, 4)).Observe(3)
	r.Emit(1, "k", 1, 2, 3)
	r.OnFlush(func() { t.Fatal("flush hook ran on nil registry") })
	r.Flush()
	r.Merge(NewRegistry())
	NewRegistry().Merge(r)
	if s := r.Snapshot(true); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", s)
	}
}

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("acts_total")
	c.Inc()
	c.Add(9)
	if c.v != 10 {
		t.Fatalf("counter = %d, want 10", c.v)
	}
	if r.Counter("acts_total") != c {
		t.Fatal("re-registration returned a different counter handle")
	}

	g := r.Gauge("peak")
	g.SetMax(5)
	g.SetMax(3)
	if v, ok := g.v, g.set; !ok || v != 5 {
		t.Fatalf("gauge = %v,%v, want 5,true", v, ok)
	}

	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot(false)
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(s.Histograms))
	}
	hs := s.Histograms[0]
	want := []uint64{2, 1, 1, 1} // <=1: {0.5, 1}; <=10: {5}; <=100: {50}; +Inf: {5000}
	for i, c := range hs.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, c, want[i], hs.Counts)
		}
	}
	if hs.Count != 5 || hs.Sum != 5056.5 {
		t.Fatalf("count=%d sum=%v", hs.Count, hs.Sum)
	}
}

func TestHistogramLayoutMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched re-registration did not panic")
		}
	}()
	r.Histogram("h", []float64{1, 3})
}

// TestMergeDeterministicAcrossShardings is the registry-level half of the
// engine guarantee: folding the same per-trial registries into a root in
// trial order must produce identical snapshots regardless of how the
// trials were grouped along the way (one merge per trial vs per-worker
// intermediate registries) — i.e. Merge is associative over an ordered
// sequence of shards.
func TestMergeDeterministicAcrossShardings(t *testing.T) {
	const trials = 32
	trialRegistry := func(trial int) *Registry {
		r := NewRegistry()
		r.Counter("trials_total").Inc()
		r.Counter(L("per_ns_total", "ns", trial%2)).Add(uint64(trial))
		r.Gauge("max_seen").SetMax(float64(trial * 7 % 13))
		r.Gauge("peak_first").SetMax(float64(trials - trial))
		r.Gauge("peak_last").SetMax(float64(trial))
		r.Histogram("dist", ExpBuckets(1, 4, 8)).Observe(float64(trial * trial))
		return r
	}

	flat := NewRegistry()
	for i := 0; i < trials; i++ {
		flat.Merge(trialRegistry(i))
	}

	grouped := NewRegistry()
	for i := 0; i < trials; i += 8 {
		group := NewRegistry()
		for j := i; j < i+8; j++ {
			group.Merge(trialRegistry(j))
		}
		grouped.Merge(group)
	}

	var a, b strings.Builder
	if err := flat.Snapshot(false).WriteTable(&a); err != nil {
		t.Fatal(err)
	}
	if err := grouped.Snapshot(false).WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("flat vs grouped snapshots differ:\n--- flat ---\n%s--- grouped ---\n%s", a.String(), b.String())
	}
	if !strings.Contains(a.String(), "trials_total") {
		t.Fatalf("snapshot missing counter:\n%s", a.String())
	}
	// Merged gauges are high watermarks, wherever the peak trial sits.
	for name, want := range map[string]float64{"max_seen": 12, "peak_first": trials, "peak_last": trials - 1} {
		if g := grouped.gauges[name]; g.v != want {
			t.Errorf("merged %s = %v, want %v", name, g.v, want)
		}
	}
}

func TestVolatileMetricsExcludedFromDeterministicSnapshots(t *testing.T) {
	r := NewRegistry()
	r.Counter("stable_total").Inc()
	r.VolatileHistogram("wallclock_seconds", SecondsBuckets).Observe(0.5)
	r.VolatileGauge("host_rate").SetMax(123)

	det := r.Snapshot(false)
	if len(det.Histograms) != 0 || len(det.Gauges) != 0 {
		t.Fatalf("volatile metrics leaked into deterministic snapshot: %+v", det)
	}
	all := r.Snapshot(true)
	if len(all.Histograms) != 1 || len(all.Gauges) != 1 {
		t.Fatalf("volatile metrics missing from full snapshot: %+v", all)
	}
	// Volatility survives a merge into a fresh root.
	root := NewRegistry()
	root.Merge(r)
	if s := root.Snapshot(false); len(s.Histograms) != 0 || len(s.Gauges) != 0 {
		t.Fatalf("volatility lost across merge: %+v", s)
	}
}

func TestTracerRingOverflow(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{T: uint64(i), Kind: "k"})
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", tr.Total(), tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(evs))
	}
	// The ring keeps the newest events, oldest first.
	for i, ev := range evs {
		if ev.T != uint64(6+i) {
			t.Fatalf("event %d has T=%d, want %d", i, ev.T, 6+i)
		}
	}
}

func TestRegistryTraceMergePreservesOrderAndDrops(t *testing.T) {
	root := NewTracing(8)
	for shard := 0; shard < 3; shard++ {
		r := NewTracing(2)
		for i := 0; i < 4; i++ { // overflow each shard ring: 2 kept, 2 dropped
			r.Emit(uint64(i), "k", int64(shard), 0, 0)
		}
		root.Merge(r)
	}
	total, dropped := root.TraceTotals()
	if total != 12 {
		t.Fatalf("total = %d, want 12 (6 merged + 6 shard-dropped)", total)
	}
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	evs := root.Events()
	if len(evs) != 6 {
		t.Fatalf("len = %d, want 6", len(evs))
	}
	for i, ev := range evs {
		if ev.A != int64(i/2) {
			t.Fatalf("event %d from shard %d, want shard order", i, ev.A)
		}
	}
}

func TestEventsJSONL(t *testing.T) {
	RegisterEventKind("test.flip", "bank", "row", "bit")
	RegisterEventKind("test.flip", "bank", "row", "bit") // idempotent
	var b strings.Builder
	err := WriteEventsJSONL(&b, []Event{
		{T: 7, Kind: "test.flip", A: 1, B: 2, C: 3},
		{T: 9, Kind: "unregistered", A: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "{\"t\":7,\"kind\":\"test.flip\",\"bank\":1,\"row\":2,\"bit\":3}\n" +
		"{\"t\":9,\"kind\":\"unregistered\",\"a\":4,\"b\":0,\"c\":0}\n"
	if b.String() != want {
		t.Fatalf("jsonl =\n%s\nwant\n%s", b.String(), want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting kind re-registration did not panic")
		}
	}()
	RegisterEventKind("test.flip", "x", "y", "z")
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(L("reads_total", "ns", 1)).Add(3)
	r.Gauge("iops").SetMax(1.5e6)
	r.Histogram("acts", []float64{10, 100}).Observe(42)
	var b strings.Builder
	if err := r.Snapshot(true).WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE reads_total counter",
		`reads_total{ns="1"} 3`,
		"iops 1.5e+06",
		`acts_bucket{le="100"} 1`,
		`acts_bucket{le="+Inf"} 1`,
		"acts_sum 42",
		"acts_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFlushRunsHooksOnce(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.OnFlush(func() { n++; r.Counter("flushed_total").Inc() })
	r.Flush()
	r.Flush()
	if n != 1 {
		t.Fatalf("hook ran %d times, want 1", n)
	}
	// Hooks registered after a flush still run at the next one.
	r.OnFlush(func() { n += 10 })
	r.Flush()
	if n != 11 {
		t.Fatalf("late hook: n = %d, want 11", n)
	}
}
