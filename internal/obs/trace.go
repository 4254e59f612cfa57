package obs

import (
	"fmt"
	"io"
	"sync"
)

// Event is one traced occurrence. Events are fixed-size so the tracer's
// hot path never allocates: a virtual timestamp, an interned kind string,
// and three kind-specific integer attributes whose meanings are declared
// via RegisterEventKind and documented in docs/METRICS.md.
type Event struct {
	// T is the emitting world's virtual time in nanoseconds. Trial-local:
	// every trial world starts at zero, so a merged stream restarts its
	// timeline at each "runner.trial" boundary event.
	T    uint64
	Kind string
	A    int64
	B    int64
	C    int64
}

// Tracer is a bounded ring buffer of events: it keeps the most recent
// `capacity` events and counts what it had to drop. Like the rest of the
// hot path it is single-goroutine; the owning Registry serializes
// cross-goroutine reads.
type Tracer struct {
	capacity int
	buf      []Event
	start    int // index of the oldest event once the ring is full
	total    uint64
}

// NewTracer returns a tracer bounded at capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		panic("obs: tracer capacity must be positive")
	}
	return &Tracer{capacity: capacity}
}

// Emit appends one event, overwriting the oldest when full.
func (t *Tracer) Emit(ev Event) {
	t.total++
	if len(t.buf) < t.capacity {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.start] = ev
	t.start = (t.start + 1) % t.capacity
}

// Events returns a copy of the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.start:]...)
	out = append(out, t.buf[:t.start]...)
	return out
}

// Total returns how many events were ever emitted.
func (t *Tracer) Total() uint64 { return t.total }

// Dropped returns how many events the ring discarded.
func (t *Tracer) Dropped() uint64 { return t.total - uint64(len(t.buf)) }

// Event kinds name their three attributes once, centrally, so the JSONL
// export is self-describing. Instrumented packages register their kinds
// from init functions; re-registering a kind with different field names
// panics.
var (
	eventFieldsMu sync.RWMutex
	eventFields   = map[string][3]string{}
)

// RegisterEventKind declares the attribute names of one event kind.
func RegisterEventKind(kind, a, b, c string) {
	eventFieldsMu.Lock()
	defer eventFieldsMu.Unlock()
	if prev, ok := eventFields[kind]; ok {
		if prev != [3]string{a, b, c} {
			panic(fmt.Sprintf("obs: event kind %q re-registered with different fields", kind))
		}
		return
	}
	eventFields[kind] = [3]string{a, b, c}
}

func fieldNames(kind string) [3]string {
	eventFieldsMu.RLock()
	f, ok := eventFields[kind]
	eventFieldsMu.RUnlock()
	if !ok {
		return [3]string{"a", "b", "c"}
	}
	return f
}

// WriteTraceHeader writes the versioned first line of a JSONL trace
// stream: {"schema":"v1","format":"ftlhammer-trace"}. Writers emit it once
// per file (or HTTP response), before any events, so consumers can detect
// format drift; every subsequent line is one event object (which always
// carries "t" and "kind", never "schema").
func WriteTraceHeader(w io.Writer) error {
	_, err := fmt.Fprintf(w, "{\"schema\":%q,\"format\":\"ftlhammer-trace\"}\n", SchemaVersion)
	return err
}

// WriteEventsJSONL writes events one JSON object per line, resolving each
// kind's attribute names. Attributes with an empty declared name are
// omitted.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	for _, ev := range events {
		f := fieldNames(ev.Kind)
		if _, err := fmt.Fprintf(w, `{"t":%d,"kind":%q`, ev.T, ev.Kind); err != nil {
			return err
		}
		for i, v := range [3]int64{ev.A, ev.B, ev.C} {
			if f[i] == "" {
				continue
			}
			if _, err := fmt.Fprintf(w, `,%q:%d`, f[i], v); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "}\n"); err != nil {
			return err
		}
	}
	return nil
}
