package obs

import (
	"fmt"
	"sync"
)

// Counter is a monotonically increasing count. The zero value is unusable;
// obtain counters from a Registry. All methods are nil-receiver-safe: a nil
// counter (from a nil registry) makes every operation a no-op branch, which
// is the disabled-metrics fast path.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// GaugeAgg selects how a gauge combines across registry merges. Merges
// happen in a caller-fixed order (shard order in the trial engine), and
// every aggregation below is order-independent per name, so merged gauges
// are deterministic at any worker count.
type GaugeAgg uint8

const (
	// AggMax keeps the maximum merged value (high watermarks).
	AggMax GaugeAgg = iota
	// AggMin keeps the minimum merged value (low watermarks).
	AggMin
	// AggSum adds merged values.
	AggSum
)

// Gauge is a last-set floating-point value with merge semantics chosen at
// registration. Nil-receiver-safe, like Counter.
type Gauge struct {
	v   float64
	set bool
	agg GaugeAgg
}

// Set records v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v, g.set = v, true
	}
}

// SetMax records v if it exceeds the current value (or none is set).
func (g *Gauge) SetMax(v float64) {
	if g != nil && (!g.set || v > g.v) {
		g.v, g.set = v, true
	}
}

// Value returns the gauge value and whether it was ever set.
func (g *Gauge) Value() (float64, bool) {
	if g == nil {
		return 0, false
	}
	return g.v, g.set
}

// Histogram counts observations into a fixed bucket layout (cumulative
// upper bounds plus an implicit +Inf overflow bucket, Prometheus-style).
// The layout is fixed at registration, so observation and merge never
// allocate. Nil-receiver-safe.
type Histogram struct {
	bounds []float64 // sorted upper bounds; counts[i] counts v <= bounds[i]
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	count  uint64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// ObserveN records the value n times in one step, for projecting a
// distribution kept as state (value → occurrence count) at Flush.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i] += n
	h.count += n
	h.sum += v * float64(n)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// ExpBuckets returns n exponentially spaced upper bounds starting at start
// and growing by factor. Layouts are computed once at registration time,
// never on the observation path.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Canned bucket layouts shared by the instrumented packages. Using one
// named layout per metric family keeps shard registries merge-compatible.
var (
	// ActivationBuckets spans per-bank activation counts (1 .. 64M).
	ActivationBuckets = ExpBuckets(1, 4, 14)
	// SecondsBuckets spans wall-clock durations (100µs .. 1.6ks).
	SecondsBuckets = ExpBuckets(1e-4, 4, 12)
	// RetryBuckets spans per-command retry counts (1 .. 32).
	RetryBuckets = ExpBuckets(1, 2, 6)
)

// L formats a label-qualified metric name, e.g. L("nvme_ns_reads_total",
// "ns", 2) == `nvme_ns_reads_total{ns="2"}`. The result is a plain
// registry key (and already valid Prometheus exposition syntax); call it
// at registration time, not on the hot path — it allocates.
func L(name, key string, val any) string {
	return fmt.Sprintf(`%s{%s="%v"}`, name, key, val)
}

// Registry holds one simulation world's instruments: named counters,
// gauges and histograms, plus an optional bounded event tracer.
//
// Concurrency contract: the hot path (handle methods, Emit) is
// single-goroutine, like the sim.World the registry belongs to.
// Registration, Flush, Merge and Snapshot take an internal lock so that a
// root registry that only ever *receives* merges can be snapshotted
// concurrently (the -listen live endpoint). A nil *Registry is valid
// everywhere and disables everything.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	volatile map[string]bool
	flush    []func()
	tr       *Tracer
}

// NewRegistry returns an empty registry without a tracer.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		volatile: map[string]bool{},
	}
}

// NewTracing returns a registry with a bounded ring-buffer tracer keeping
// the most recent capacity events.
func NewTracing(capacity int) *Registry {
	r := NewRegistry()
	r.tr = NewTracer(capacity)
	return r
}

// Tracing reports whether the registry carries a tracer.
func (r *Registry) Tracing() bool { return r != nil && r.tr != nil }

// TraceCap returns the tracer's ring capacity (0 without a tracer).
func (r *Registry) TraceCap() int {
	if r == nil || r.tr == nil {
		return 0
	}
	return r.tr.capacity
}

// Counter returns the named counter, registering it on first use.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge with the given merge aggregation,
// registering it on first use.
func (r *Registry) Gauge(name string, agg GaugeAgg) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{agg: agg}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the given fixed bucket
// layout, registering it on first use. Re-registering with a different
// layout panics: layouts are per-name constants, and a mismatch would make
// shard merges ill-defined.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histogramLocked(name, bounds)
}

func (r *Registry) histogramLocked(name string, bounds []float64) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		r.hists[name] = h
		return h
	}
	if !sameBounds(h.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with a different bucket layout", name))
	}
	return h
}

// VolatileHistogram registers a histogram whose contents are not
// deterministic across runs (wall-clock timings, host-side measurements).
// Volatile metrics are excluded from deterministic snapshots so that
// metric dumps stay byte-identical at any worker count; they still appear
// on the live endpoint and in Snapshot(true).
func (r *Registry) VolatileHistogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.volatile[name] = true
	return r.histogramLocked(name, bounds)
}

// VolatileGauge registers a gauge excluded from deterministic snapshots.
func (r *Registry) VolatileGauge(name string, agg GaugeAgg) *Gauge {
	g := r.Gauge(name, agg)
	if r != nil {
		r.mu.Lock()
		r.volatile[name] = true
		r.mu.Unlock()
	}
	return g
}

// CounterAdd is a locked convenience for off-hot-path increments on a
// registry that may be concurrently snapshotted (e.g. a root registry
// behind a live HTTP endpoint).
func (r *Registry) CounterAdd(name string, n uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	c.v += n
}

// Emit records one trace event (no-op without a tracer). The hot-path cost
// of disabled tracing is the two nil checks.
func (r *Registry) Emit(t uint64, kind string, a, b, c int64) {
	if r == nil || r.tr == nil {
		return
	}
	r.tr.Emit(Event{T: t, Kind: kind, A: a, B: b, C: c})
}

// Events returns a copy of the traced events, oldest first.
func (r *Registry) Events() []Event {
	if r == nil || r.tr == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tr.Events()
}

// TraceTotals returns how many events were emitted and how many the
// bounded ring dropped.
func (r *Registry) TraceTotals() (total, dropped uint64) {
	if r == nil || r.tr == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tr.Total(), r.tr.Dropped()
}

// OnFlush registers fn to run at the next Flush. Instrumented modules use
// this to project cheap internal counters (which they maintain anyway)
// into the registry exactly once, at end of trial, instead of
// double-counting on the hot path.
func (r *Registry) OnFlush(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.flush = append(r.flush, fn)
	r.mu.Unlock()
}

// Flush runs and clears the registered flush hooks, in registration order.
// Call it exactly once per registry when its world's trial completes,
// before merging the registry anywhere. Safe to call repeatedly: hooks run
// once each.
func (r *Registry) Flush() {
	if r == nil {
		return
	}
	r.mu.Lock()
	hooks := r.flush
	r.flush = nil
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Merge folds src into r: counters add, gauges combine per their
// aggregation, histograms add bucket-wise (layouts must match), trace
// events append in src order (ring-bounded). src must be quiescent (its
// owning goroutine done, with a happens-before edge to the caller — the
// trial engine's WaitGroup provides one). Callers merge shards in a fixed
// order; every per-name combination is order-independent, so the merged
// registry is deterministic at any worker count.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range src.counters {
		dst := r.counters[name]
		if dst == nil {
			dst = &Counter{}
			r.counters[name] = dst
		}
		dst.v += c.v
	}
	for name, g := range src.gauges {
		if !g.set {
			continue
		}
		dst := r.gauges[name]
		if dst == nil {
			dst = &Gauge{agg: g.agg}
			r.gauges[name] = dst
		}
		switch {
		case !dst.set:
			dst.v, dst.set = g.v, true
		case dst.agg == AggMax && g.v > dst.v:
			dst.v = g.v
		case dst.agg == AggMin && g.v < dst.v:
			dst.v = g.v
		case dst.agg == AggSum:
			dst.v += g.v
		}
	}
	for name, h := range src.hists {
		dst := r.histogramLocked(name, h.bounds)
		for i, c := range h.counts {
			dst.counts[i] += c
		}
		dst.count += h.count
		dst.sum += h.sum
	}
	for name := range src.volatile {
		r.volatile[name] = true
	}
	if r.tr != nil && src.tr != nil {
		for _, ev := range src.tr.Events() {
			r.tr.Emit(ev)
		}
		r.tr.total += src.tr.Dropped()
	}
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
