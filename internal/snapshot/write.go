package snapshot

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
)

// Writer builds a snapshot stream section by section. Sections and fields
// are emitted in the order they are added, so a producer that always adds
// them in the same order yields byte-identical streams for identical state
// — the property the state hash relies on.
type Writer struct {
	secs []*SectionWriter
}

// NewWriter returns an empty snapshot under the current FormatVersion.
func NewWriter() *Writer { return &Writer{} }

// Section appends a new named section and returns its field writer.
func (w *Writer) Section(name string) *SectionWriter {
	s := &SectionWriter{name: name}
	w.secs = append(w.secs, s)
	return s
}

// WriteTo streams the snapshot to dst: the header, then each section's
// name and field count followed by its encoded fields, without
// assembling the stream in memory.
func (w *Writer) WriteTo(dst io.Writer) (int64, error) {
	var n int64
	write := func(p []byte) error {
		k, err := dst.Write(p)
		n += int64(k)
		return err
	}
	head := append(make([]byte, 0, 64), magic[:]...)
	head = binary.LittleEndian.AppendUint16(head, FormatVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(w.secs)))
	if err := write(head); err != nil {
		return n, err
	}
	for _, s := range w.secs {
		head = appendName(head[:0], s.name)
		head = binary.LittleEndian.AppendUint32(head, s.n)
		if err := write(head); err != nil {
			return n, err
		}
		if err := write(s.buf); err != nil {
			return n, err
		}
	}
	return n, nil
}

// SectionWriter encodes the fields of one section.
type SectionWriter struct {
	name string
	n    uint32
	buf  []byte
}

func appendName(buf []byte, name string) []byte {
	if len(name) > 0xFFFF {
		panic("snapshot: name longer than 65535 bytes")
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	return append(buf, name...)
}

func (s *SectionWriter) field(name string, tag byte) {
	s.buf = appendName(s.buf, name)
	s.buf = append(s.buf, tag)
	s.n++
}

// checkLen panics on payloads the u32 length prefix cannot represent;
// nothing in the simulator comes within orders of magnitude of 4 GiB.
func checkLen(n int) uint32 {
	if n < 0 || int64(n) > 0xFFFFFFFF {
		panic("snapshot: payload longer than 4 GiB")
	}
	return uint32(n)
}

// U64 appends a uint64 field.
func (s *SectionWriter) U64(name string, v uint64) {
	s.field(name, tagU64)
	s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
}

// I64 appends an int64 field.
func (s *SectionWriter) I64(name string, v int64) {
	s.field(name, tagI64)
	s.buf = binary.LittleEndian.AppendUint64(s.buf, uint64(v))
}

// F64 appends a float64 field, preserving the exact bit pattern.
func (s *SectionWriter) F64(name string, v float64) {
	s.field(name, tagF64)
	s.buf = binary.LittleEndian.AppendUint64(s.buf, math.Float64bits(v))
}

// Bool appends a boolean field.
func (s *SectionWriter) Bool(name string, v bool) {
	s.field(name, tagBool)
	b := byte(0)
	if v {
		b = 1
	}
	s.buf = append(s.buf, b)
}

// Bytes appends a raw byte-blob field.
func (s *SectionWriter) Bytes(name string, v []byte) {
	s.field(name, tagBytes)
	s.buf = binary.LittleEndian.AppendUint32(s.buf, checkLen(len(v)))
	s.buf = append(s.buf, v...)
}

// String appends a string field.
func (s *SectionWriter) String(name string, v string) {
	s.field(name, tagString)
	s.buf = binary.LittleEndian.AppendUint32(s.buf, checkLen(len(v)))
	s.buf = append(s.buf, v...)
}

// U64s appends a uint64-array field.
func (s *SectionWriter) U64s(name string, v []uint64) {
	s.field(name, tagU64s)
	p := s.payload(len(v), 8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(p[8*i:], x)
	}
}

// U32s appends a uint32-array field.
func (s *SectionWriter) U32s(name string, v []uint32) {
	s.field(name, tagU32s)
	p := s.payload(len(v), 4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(p[4*i:], x)
	}
}

// payload appends an array's length prefix, reserves its n elements of
// size bytes in one step, and returns them for the caller to fill.
func (s *SectionWriter) payload(n, size int) []byte {
	s.buf = binary.LittleEndian.AppendUint32(s.buf, checkLen(n))
	at := len(s.buf)
	s.buf = slices.Grow(s.buf, n*size)[:at+n*size]
	return s.buf[at:]
}
