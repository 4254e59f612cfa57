package replay

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// Trace format identity. The header is the first line of every trace;
// readers reject anything else before looking at a single entry.
const (
	// Schema is the trace schema version. Bump it on any incompatible
	// change to the entry layout, and document the change in
	// docs/REPLAY.md.
	Schema = "v1"
	// Format names the file format in the header line.
	Format = "ftlhammer-cmdtrace"
)

// maxLineBytes bounds one trace line. A line holds one command with at
// most one base64 block payload, so 1 MiB is generous headroom.
const maxLineBytes = 1 << 20

type header struct {
	Schema string `json:"schema"`
	Format string `json:"format"`
}

// Entry is one recorded command in a trace. Field names mirror the JSONL
// keys; Data is base64 in the encoded form (encoding/json's []byte
// convention) and is present only for writes.
type Entry struct {
	// Tick is the virtual time at the original submission
	// (informational; replay re-derives timing from execution).
	Tick uint64 `json:"t"`
	// Session identifies the submitting session (transport session id;
	// zero for in-process callers).
	Session uint64 `json:"sess,omitempty"`
	// NSID is the target namespace id.
	NSID int `json:"ns"`
	// Op is the opcode: "read", "write" or "trim".
	Op string `json:"op"`
	// Path is the submission path: "direct" or "host-fs".
	Path string `json:"path"`
	// LBA is the namespace-relative logical block address.
	LBA uint64 `json:"lba"`
	// Data is the written block (writes only).
	Data []byte `json:"data,omitempty"`
}

// FromRecord converts a device-level command record into a trace entry.
func FromRecord(cr nvme.CommandRecord) Entry {
	return Entry{
		Tick:    cr.Tick,
		Session: cr.Origin,
		NSID:    cr.NSID,
		Op:      cr.Op.String(),
		Path:    cr.Path.String(),
		LBA:     uint64(cr.LBA),
		Data:    cr.Data,
	}
}

// parseOp maps the trace opcode string back to the device opcode.
func parseOp(s string) (nvme.Opcode, bool) {
	switch s {
	case "read":
		return nvme.OpRead, true
	case "write":
		return nvme.OpWrite, true
	case "trim":
		return nvme.OpTrim, true
	}
	return 0, false
}

// parsePath maps the trace path string back to the submission path.
func parsePath(s string) (nvme.Path, bool) {
	switch s {
	case "direct":
		return nvme.PathDirect, true
	case "host-fs":
		return nvme.PathHostFS, true
	}
	return 0, false
}

// command converts the entry into an executable device command, looking
// the namespace up on dev. For reads it allocates the destination buffer.
func (e Entry) command(dev *nvme.Device, tag uint64) (nvme.Command, error) {
	op, ok := parseOp(e.Op)
	if !ok {
		return nvme.Command{}, fmt.Errorf("unknown op %q", e.Op)
	}
	path, ok := parsePath(e.Path)
	if !ok {
		return nvme.Command{}, fmt.Errorf("unknown path %q", e.Path)
	}
	ns, ok := dev.NamespaceByID(e.NSID)
	if !ok {
		return nvme.Command{}, fmt.Errorf("device has no namespace %d", e.NSID)
	}
	cmd := nvme.Command{
		Op: op, NS: ns, Path: path,
		LBA: ftl.LBA(e.LBA), Tag: tag, Origin: e.Session,
	}
	switch op {
	case nvme.OpRead:
		cmd.Buf = make([]byte, dev.BlockBytes())
	case nvme.OpWrite:
		if len(e.Data) != dev.BlockBytes() {
			return nvme.Command{}, fmt.Errorf("write payload is %d bytes, device block is %d",
				len(e.Data), dev.BlockBytes())
		}
		cmd.Buf = append([]byte(nil), e.Data...)
	}
	return cmd, nil
}

// HeaderError reports a trace whose first line is not the expected
// header.
type HeaderError struct{ Msg string }

func (e *HeaderError) Error() string { return "replay: bad trace header: " + e.Msg }

// ParseError reports a malformed trace entry, with its 1-based line
// number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("replay: trace line %d: %s", e.Line, e.Msg)
}

// ReadTrace parses a JSONL command trace. It returns *HeaderError if the
// stream does not start with the v1 header, and *ParseError for the
// first malformed entry. An empty trace (header only) is valid.
func ReadTrace(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, &HeaderError{Msg: "empty stream"}
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, &HeaderError{Msg: err.Error()}
	}
	if h.Format != Format {
		return nil, &HeaderError{Msg: fmt.Sprintf("format %q, want %q", h.Format, Format)}
	}
	if h.Schema != Schema {
		return nil, &HeaderError{Msg: fmt.Sprintf("schema %q, want %q", h.Schema, Schema)}
	}
	var entries []Entry
	for line := 2; sc.Scan(); line++ {
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var e Entry
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return nil, &ParseError{Line: line, Msg: err.Error()}
		}
		if _, ok := parseOp(e.Op); !ok {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("unknown op %q", e.Op)}
		}
		if _, ok := parsePath(e.Path); !ok {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("unknown path %q", e.Path)}
		}
		if e.Op != "write" && len(e.Data) != 0 {
			return nil, &ParseError{Line: line, Msg: fmt.Sprintf("%s carries a data payload", e.Op)}
		}
		if len(e.Data) == 0 {
			e.Data = nil // normalize `"data":""` so round trips compare equal
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// WriteTrace writes the header line and every entry as a JSONL stream.
func WriteTrace(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeHeader(w io.Writer) error {
	b, err := json.Marshal(header{Schema: Schema, Format: Format})
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Recorder streams command records into a JSONL trace. It is the
// standard sink for nvme.Device.SetRecorder: errors are sticky (the
// first write failure latches and subsequent records are dropped), so
// the hot path never has to handle I/O errors — check Err or Flush when
// recording ends.
type Recorder struct {
	bw  *bufio.Writer
	enc *json.Encoder
	n   int
	err error
}

// NewRecorder builds a recorder over w and writes the trace header.
func NewRecorder(w io.Writer) *Recorder {
	bw := bufio.NewWriter(w)
	r := &Recorder{bw: bw, enc: json.NewEncoder(bw)}
	r.err = writeHeader(bw)
	return r
}

// Record appends one command to the trace. It has the signature
// nvme.Device.SetRecorder expects.
func (r *Recorder) Record(cr nvme.CommandRecord) {
	if r.err != nil {
		return
	}
	if err := r.enc.Encode(FromRecord(cr)); err != nil {
		r.err = err
		return
	}
	r.n++
}

// Attach installs the recorder on dev. Recording continues until the
// device's recorder is replaced or cleared (dev.SetRecorder(nil)).
func (r *Recorder) Attach(dev *nvme.Device) { dev.SetRecorder(r.Record) }

// Count returns the number of commands recorded so far.
func (r *Recorder) Count() int { return r.n }

// Flush drains buffered output and returns the first error seen over the
// recorder's whole lifetime.
func (r *Recorder) Flush() error {
	if r.err != nil {
		return r.err
	}
	return r.bw.Flush()
}
