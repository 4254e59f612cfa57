package snapshot

import (
	"encoding/binary"
	"math"
)

// Snapshot is a decoded stream: the full section/field tree, ready for
// typed access or JSON export.
type Snapshot struct {
	// Version is the format version the stream was written with.
	Version uint16

	secs   []*Section
	byName map[string]*Section
}

// Section holds the decoded fields of one named section. Getters are
// sticky-error: the first missing field, type mismatch, or (via Reject)
// loader-side validation failure latches into Err and every later getter
// returns its zero value, so loaders read everything and check Err once.
type Section struct {
	name   string
	fields []field
	idx    map[string]int
	err    error
}

type field struct {
	name string
	tag  byte
	u    uint64 // u64 / i64 bits / f64 bits / bool
	b    []byte // bytes / string
	u64s []uint64
	u32s []uint32
}

// reader walks a fully-read byte slice with explicit bounds checks; it
// never indexes past len(data), which is what makes Decode panic-free on
// arbitrary input.
type reader struct {
	data []byte
	off  int
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) take(n int) ([]byte, bool) {
	if n < 0 || r.remaining() < n {
		return nil, false
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, true
}

func (r *reader) u16() (uint16, bool) {
	b, ok := r.take(2)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint16(b), true
}

func (r *reader) u32() (uint32, bool) {
	b, ok := r.take(4)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b), true
}

func (r *reader) u64() (uint64, bool) {
	b, ok := r.take(8)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b), true
}

func (r *reader) name() (string, bool) {
	n, ok := r.u16()
	if !ok {
		return "", false
	}
	b, ok := r.take(int(n))
	if !ok {
		return "", false
	}
	return string(b), true
}

// Decode parses a complete snapshot stream. It returns ErrBadMagic when
// the input is not a snapshot at all, a *VersionError for a version this
// build cannot read, and a *FormatError for truncated or malformed
// content. It never panics, and it bounds every allocation by the input
// size before making it.
func Decode(data []byte) (*Snapshot, error) {
	r := &reader{data: data}
	m, ok := r.take(len(magic))
	if !ok || string(m) != string(magic[:]) {
		return nil, ErrBadMagic
	}
	ver, ok := r.u16()
	if !ok {
		return nil, &FormatError{Msg: "truncated header"}
	}
	if ver != FormatVersion {
		return nil, &VersionError{Got: ver}
	}
	nSecs, ok := r.u32()
	if !ok {
		return nil, &FormatError{Msg: "truncated header"}
	}
	// A section costs at least 6 bytes (empty name + field count), so the
	// declared count is bounded by the bytes actually present.
	if int64(nSecs) > int64(r.remaining()/6) {
		return nil, &FormatError{Msg: "section count exceeds input size"}
	}
	s := &Snapshot{Version: ver, byName: make(map[string]*Section, nSecs)}
	for i := uint32(0); i < nSecs; i++ {
		sec, err := decodeSection(r)
		if err != nil {
			return nil, err
		}
		s.secs = append(s.secs, sec)
		if _, dup := s.byName[sec.name]; dup {
			return nil, &FormatError{Section: sec.name, Msg: "duplicate section"}
		}
		s.byName[sec.name] = sec
	}
	if r.remaining() != 0 {
		return nil, &FormatError{Msg: "trailing bytes after last section"}
	}
	return s, nil
}

func decodeSection(r *reader) (*Section, error) {
	name, ok := r.name()
	if !ok {
		return nil, &FormatError{Msg: "truncated section name"}
	}
	nFields, ok := r.u32()
	if !ok {
		return nil, &FormatError{Section: name, Msg: "truncated field count"}
	}
	// A field costs at least 3 bytes (empty name + tag).
	if int64(nFields) > int64(r.remaining()/3) {
		return nil, &FormatError{Section: name, Msg: "field count exceeds input size"}
	}
	sec := &Section{
		name:   name,
		fields: make([]field, 0, nFields),
		idx:    make(map[string]int, nFields),
	}
	for i := uint32(0); i < nFields; i++ {
		f, err := decodeField(r, name)
		if err != nil {
			return nil, err
		}
		if _, dup := sec.idx[f.name]; dup {
			return nil, &FormatError{Section: name, Field: f.name, Msg: "duplicate field"}
		}
		sec.idx[f.name] = len(sec.fields)
		sec.fields = append(sec.fields, f)
	}
	return sec, nil
}

func decodeField(r *reader, section string) (field, error) {
	var f field
	name, ok := r.name()
	if !ok {
		return f, &FormatError{Section: section, Msg: "truncated field name"}
	}
	f.name = name
	tag, ok := r.take(1)
	if !ok {
		return f, &FormatError{Section: section, Field: name, Msg: "truncated type tag"}
	}
	f.tag = tag[0]
	fail := func(msg string) (field, error) {
		return f, &FormatError{Section: section, Field: name, Msg: msg}
	}
	switch f.tag {
	case tagU64, tagI64, tagF64:
		v, ok := r.u64()
		if !ok {
			return fail("truncated value")
		}
		f.u = v
	case tagBool:
		b, ok := r.take(1)
		if !ok {
			return fail("truncated value")
		}
		if b[0] > 1 {
			return fail("bool byte out of range")
		}
		f.u = uint64(b[0])
	case tagBytes, tagString:
		n, ok := r.u32()
		if !ok {
			return fail("truncated length")
		}
		b, ok := r.take(int(n))
		if !ok {
			return fail("length exceeds input size")
		}
		f.b = b
	case tagU64s:
		n, ok := r.u32()
		if !ok {
			return fail("truncated count")
		}
		if int64(n)*8 > int64(r.remaining()) {
			return fail("count exceeds input size")
		}
		f.u64s = make([]uint64, n)
		for i := range f.u64s {
			f.u64s[i], _ = r.u64()
		}
	case tagU32s:
		n, ok := r.u32()
		if !ok {
			return fail("truncated count")
		}
		if int64(n)*4 > int64(r.remaining()) {
			return fail("count exceeds input size")
		}
		f.u32s = make([]uint32, n)
		for i := range f.u32s {
			f.u32s[i], _ = r.u32()
		}
	default:
		return fail("unknown type tag")
	}
	return f, nil
}

// Has reports whether a section with the given name exists.
func (s *Snapshot) Has(name string) bool {
	_, ok := s.byName[name]
	return ok
}

// Sections returns every section in stream order.
func (s *Snapshot) Sections() []*Section { return s.secs }

// Section returns the named section. A missing section is reported
// through the returned section's sticky error, so loaders can chain
// getters unconditionally and check Err once.
func (s *Snapshot) Section(name string) *Section {
	if sec, ok := s.byName[name]; ok {
		return sec
	}
	return &Section{
		name: name,
		err:  &FormatError{Section: name, Msg: "section missing"},
	}
}

// Name returns the section's name.
func (s *Section) Name() string { return s.name }

// Err returns the first error any getter on this section encountered, or
// the section-missing error, or nil.
func (s *Section) Err() error { return s.err }

// Reject latches a loader-side validation failure for the named field
// into the section's sticky error.
func (s *Section) Reject(fieldName, format string, args ...any) {
	if s.err == nil {
		s.err = Errf(s.name, fieldName, format, args...)
	}
}

func (s *Section) get(name string, tag byte) *field {
	if s.idx == nil { // missing section: keep the original error
		return nil
	}
	i, ok := s.idx[name]
	if !ok {
		s.Reject(name, "field missing")
		return nil
	}
	f := &s.fields[i]
	if f.tag != tag {
		s.Reject(name, "field has type %s, want %s", typeName(f.tag), typeName(tag))
		return nil
	}
	return f
}

// U64 reads a uint64 field.
func (s *Section) U64(name string) uint64 {
	f := s.get(name, tagU64)
	if f == nil {
		return 0
	}
	return f.u
}

// I64 reads an int64 field.
func (s *Section) I64(name string) int64 {
	f := s.get(name, tagI64)
	if f == nil {
		return 0
	}
	return int64(f.u)
}

// F64 reads a float64 field.
func (s *Section) F64(name string) float64 {
	f := s.get(name, tagF64)
	if f == nil {
		return 0
	}
	return math.Float64frombits(f.u)
}

// Bool reads a boolean field.
func (s *Section) Bool(name string) bool {
	f := s.get(name, tagBool)
	if f == nil {
		return false
	}
	return f.u == 1
}

// Bytes reads a byte-blob field. The slice aliases the decoded input.
func (s *Section) Bytes(name string) []byte {
	f := s.get(name, tagBytes)
	if f == nil {
		return nil
	}
	return f.b
}

// String reads a string field.
func (s *Section) String(name string) string {
	f := s.get(name, tagString)
	if f == nil {
		return ""
	}
	return string(f.b)
}

// U64s reads a uint64-array field.
func (s *Section) U64s(name string) []uint64 {
	f := s.get(name, tagU64s)
	if f == nil {
		return nil
	}
	return f.u64s
}

// U32s reads a uint32-array field.
func (s *Section) U32s(name string) []uint32 {
	f := s.get(name, tagU32s)
	if f == nil {
		return nil
	}
	return f.u32s
}

func typeName(tag byte) string {
	switch tag {
	case tagU64:
		return "u64"
	case tagI64:
		return "i64"
	case tagF64:
		return "f64"
	case tagBool:
		return "bool"
	case tagBytes:
		return "bytes"
	case tagString:
		return "string"
	case tagU64s:
		return "u64s"
	case tagU32s:
		return "u32s"
	default:
		return "unknown"
	}
}
