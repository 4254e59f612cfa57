package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// span is one benchmark-side call into a layer's public API. Spans of one
// timed unit share Trace; Parent is the enclosing span's ID (0 at top).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op. One tracer belongs to one
// goroutine; concurrent callers each take a fork and join it afterwards.
type tracer struct {
	t0    time.Time
	ids   *atomic.Int64
	trace int
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: new(atomic.Int64)}
}

// begin opens a span and returns a handle for end.
func (t *tracer) begin(name string, parent int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID:     t.ids.Add(1),
		Parent: parent,
		Trace:  t.trace,
		Name:   name,
		Start:  time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t != nil {
		t.spans[h].End = time.Since(t.t0).Nanoseconds()
	}
}

// id returns the span ID behind a handle, for use as a parent.
func (t *tracer) id(h int) int64 {
	if t == nil {
		return 0
	}
	return t.spans[h].ID
}

// fork returns a tracer for another goroutine sharing the clock and ID space.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	return &tracer{t0: t.t0, ids: t.ids, trace: t.trace}
}

// join appends a finished fork's spans.
func (t *tracer) join(f *tracer) {
	if t != nil {
		t.spans = append(t.spans, f.spans...)
	}
}

// seconds sums the durations of spans named name in trace unit tr.
func (t *tracer) seconds(name string, tr int) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.spans {
		if s.Name == name && s.Trace == tr {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The attack-stage wrappers time each call the pipeline makes into the
// attack layer. They are installed only in traced units.

type tracedAllocator struct {
	attack.Allocator
	t      *tracer
	parent int64
}

func (a tracedAllocator) Allocate(dev *nvme.Device, ns *nvme.Namespace, path nvme.Path, sides int) ([]attack.Binding, error) {
	h := a.t.begin("attack.allocate", a.parent)
	defer a.t.end(h)
	return a.Allocator.Allocate(dev, ns, path, sides)
}

type tracedHammerer struct {
	attack.Hammerer
	t      *tracer
	parent int64
}

func (a tracedHammerer) Hammer(b attack.Binding, p attack.Pattern) error {
	h := a.t.begin("attack.hammer", a.parent)
	defer a.t.end(h)
	return a.Hammerer.Hammer(b, p)
}

type tracedVictim struct {
	attack.Victim
	t      *tracer
	parent int64
}

func (a tracedVictim) Arm(b []attack.Binding) error {
	h := a.t.begin("attack.arm", a.parent)
	defer a.t.end(h)
	return a.Victim.Arm(b)
}

func (a tracedVictim) Check() (attack.VictimReport, error) {
	h := a.t.begin("attack.check", a.parent)
	defer a.t.end(h)
	return a.Victim.Check()
}

// counts is a flushed registry's counters by series name.
type counts map[string]uint64

// add flushes reg and adds its counters into c.
func (c counts) add(reg *obs.Registry) {
	reg.Flush()
	for _, s := range reg.Snapshot(false).Counters {
		c[s.Name] += s.Value
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerCounts maps the layers' counter series onto ledger metrics.
func (c counts) layerCounts(l map[string]float64) {
	l["nvme.commands"] = float64(c["nvme_commands_total"])
	l["ftl.l2p_lookups"] = float64(c["ftl_l2p_lookups_total"])
	l["ftl.reads_unmapped"] = float64(c["ftl_reads_unmapped_total"])
	l["ftl.gc_runs"] = float64(c["ftl_gc_runs_total"])
	l["ftl.gc_pages_moved"] = float64(c["ftl_gc_pages_moved_total"])
	l["ftl.write_amp"] = ratio(c["ftl_flash_programs_total"], c["ftl_host_writes_total"])
	l["dram.activations"] = float64(c["dram_activations_total"])
	l["dram.row_hit_ratio"] = ratio(c["dram_row_hits_total"], c["dram_activations_total"]+c["dram_row_hits_total"])
	l["dram.flips"] = float64(c["dram_flips_total"])
	l["guard.inserts"] = float64(c["guard_inserts_total"])
	l["transport.batches"] = float64(c["transport_batches_total"])
}
