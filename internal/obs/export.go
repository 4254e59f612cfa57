package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the wire format of the JSON metrics snapshot
// and the JSONL trace stream. Consumers should check the "schema" field of
// the snapshot envelope (and of the trace header line) and refuse versions
// they do not understand; the version is bumped on any incompatible change
// to either format. docs/METRICS.md documents the formats.
const SchemaVersion = "v1"

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge in a snapshot.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistSnap is one histogram in a snapshot: cumulative-style fixed buckets
// (counts[i] counts observations <= bounds[i]; the final count is +Inf).
type HistSnap struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time, name-sorted copy of a registry's metrics.
// Sorting makes rendering deterministic: two registries with equal
// contents produce byte-identical output.
type Snapshot struct {
	// Schema is the versioned envelope marker (SchemaVersion); it is the
	// first field so the JSON rendering leads with {"schema":"v1",...}.
	Schema       string        `json:"schema"`
	Counters     []CounterSnap `json:"counters"`
	Gauges       []GaugeSnap   `json:"gauges"`
	Histograms   []HistSnap    `json:"histograms"`
	TraceTotal   uint64        `json:"trace_total,omitempty"`
	TraceDropped uint64        `json:"trace_dropped,omitempty"`
}

// Snapshot copies the registry's current metric values, sorted by name.
// With includeVolatile false, metrics registered as volatile (wall-clock
// timings and other host-dependent values) are omitted, which is what
// keeps metric dumps byte-identical across runs and worker counts.
func (r *Registry) Snapshot(includeVolatile bool) Snapshot {
	s := Snapshot{Schema: SchemaVersion}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		if !includeVolatile && r.volatile[name] {
			continue
		}
		s.Counters = append(s.Counters, CounterSnap{name, c.v})
	}
	for name, g := range r.gauges {
		if !g.set || (!includeVolatile && r.volatile[name]) {
			continue
		}
		s.Gauges = append(s.Gauges, GaugeSnap{name, g.v})
	}
	for name, h := range r.hists {
		if !includeVolatile && r.volatile[name] {
			continue
		}
		s.Histograms = append(s.Histograms, HistSnap{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Count:  h.count,
			Sum:    h.sum,
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	if r.tr != nil {
		s.TraceTotal, s.TraceDropped = r.tr.Total(), r.tr.Dropped()
	}
	return s
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteTable renders the snapshot as an aligned human-readable table.
func (s Snapshot) WriteTable(w io.Writer) error {
	width := 20
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, g := range s.Gauges {
		if len(g.Name) > width {
			width = len(g.Name)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%-*s %d\n", width, c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%-*s %s\n", width, g.Name, fmtFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "%-*s count=%d sum=%s %s\n",
			width, h.Name, h.Count, fmtFloat(h.Sum), sparkline(h)); err != nil {
			return err
		}
	}
	if s.TraceTotal > 0 {
		if _, err := fmt.Fprintf(w, "%-*s total=%d dropped=%d\n",
			width, "trace_events", s.TraceTotal, s.TraceDropped); err != nil {
			return err
		}
	}
	return nil
}

// sparkline compresses a histogram's bucket counts into a tiny bar chart.
func sparkline(h HistSnap) string {
	const ramp = " .:-=+*#%@"
	var max uint64
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return "[empty]"
	}
	var b strings.Builder
	b.WriteByte('[')
	for _, c := range h.Counts {
		idx := int(c * uint64(len(ramp)-1) / max)
		b.WriteByte(ramp[idx])
	}
	b.WriteByte(']')
	return b.String()
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// splitLabels splits a registry key into its Prometheus base name and the
// label block (including braces), e.g. `x_total{ns="2"}` -> `x_total`,
// `{ns="2"}`.
func splitLabels(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// mergeLabels appends extra to a label block: ({ns="2"}, le="10") ->
// {ns="2",le="10"}.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (text/plain; version 0.0.4).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	typed := map[string]bool{}
	writeType := func(base, kind string) error {
		if typed[base] {
			return nil
		}
		typed[base] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}
	for _, c := range s.Counters {
		base, labels := splitLabels(c.Name)
		if err := writeType(base, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", base, labels, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		base, labels := splitLabels(g.Name)
		if err := writeType(base, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", base, labels, fmtFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		base, labels := splitLabels(h.Name)
		if err := writeType(base, "histogram"); err != nil {
			return err
		}
		cum := uint64(0)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmtFloat(h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				base, mergeLabels(labels, `le="`+le+`"`), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, fmtFloat(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// FlagRegistry returns the registry a command's -metrics and -trace flags
// ask for: nil when both are empty, a registry tracing into a 1<<16-event
// ring when trace names a file, an untraced one otherwise. A metrics mode
// other than "", "table" or "json" is an error.
func FlagRegistry(metrics, trace string) (*Registry, error) {
	if metrics != "" && metrics != "table" && metrics != "json" {
		return nil, fmt.Errorf("-metrics must be 'table' or 'json', got %q", metrics)
	}
	switch {
	case trace != "":
		return NewTracing(1 << 16), nil
	case metrics != "":
		return NewRegistry(), nil
	}
	return nil, nil
}

// DumpExit writes a command's exit-time report of reg (nil: nothing).
// It flushes reg, writes the snapshot, volatile series included, to out
// as a table after a blank line or as JSON per the metrics mode, and when
// trace names a file writes the event trace there after its header, then
// a "trace: N events written" line to out. Every error is returned:
// losing the dump is a failed run.
func DumpExit(out io.Writer, reg *Registry, metrics, trace string) error {
	if reg == nil {
		return nil
	}
	reg.Flush()
	snap := reg.Snapshot(true)
	switch metrics {
	case "table":
		if _, err := fmt.Fprintln(out); err != nil {
			return err
		}
		if err := snap.WriteTable(out); err != nil {
			return err
		}
	case "json":
		if err := snap.WriteJSON(out); err != nil {
			return err
		}
	}
	if trace == "" {
		return nil
	}
	tf, err := os.Create(trace)
	if err != nil {
		return err
	}
	if err := WriteTraceHeader(tf); err != nil {
		tf.Close()
		return err
	}
	if err := WriteEventsJSONL(tf, reg.Events()); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	total, dropped := reg.TraceTotals()
	_, err = fmt.Fprintf(out, "trace: %d events written to %s (%d dropped from ring)\n",
		total-dropped, trace, dropped)
	return err
}
