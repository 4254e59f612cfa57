package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleStream builds a stream exercising every field type.
func sampleStream() []byte {
	w := NewWriter()
	a := w.Section("alpha")
	a.U64("u", 0xDEADBEEFCAFE)
	a.I64("i", -42)
	a.F64("f", 3.25)
	a.Bool("b", true)
	a.Bytes("blob", []byte{1, 2, 3, 0, 255})
	a.String("s", "hello")
	a.U64s("u64s", []uint64{1, 1 << 63, 0})
	a.U32s("u32s", []uint32{7, 0xFFFFFFFF})
	b := w.Section("beta")
	b.U64("only", 9)
	return streamBytes(w)
}

func TestRoundTrip(t *testing.T) {
	snap, err := Decode(sampleStream())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != FormatVersion {
		t.Fatalf("version = %d, want %d", snap.Version, FormatVersion)
	}
	if !snap.Has("alpha") || !snap.Has("beta") || snap.Has("gamma") {
		t.Fatal("section presence wrong")
	}
	a := snap.Section("alpha")
	if got := a.U64("u"); got != 0xDEADBEEFCAFE {
		t.Errorf("u = %#x", got)
	}
	if got := a.I64("i"); got != -42 {
		t.Errorf("i = %d", got)
	}
	if got := a.F64("f"); got != 3.25 {
		t.Errorf("f = %v", got)
	}
	if !a.Bool("b") {
		t.Error("b = false")
	}
	if got := a.Bytes("blob"); !bytes.Equal(got, []byte{1, 2, 3, 0, 255}) {
		t.Errorf("blob = %v", got)
	}
	if got := a.String("s"); got != "hello" {
		t.Errorf("s = %q", got)
	}
	if got := a.U64s("u64s"); !reflect.DeepEqual(got, []uint64{1, 1 << 63, 0}) {
		t.Errorf("u64s = %v", got)
	}
	if got := a.U32s("u32s"); !reflect.DeepEqual(got, []uint32{7, 0xFFFFFFFF}) {
		t.Errorf("u32s = %v", got)
	}
	if err := a.Err(); err != nil {
		t.Fatalf("unexpected sticky error: %v", err)
	}
}

func TestFloatBitsPreserved(t *testing.T) {
	w := NewWriter()
	s := w.Section("f")
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 1e-308}
	for i, v := range vals {
		s.F64(string(rune('a'+i)), v)
	}
	snap, err := Decode(streamBytes(w))
	if err != nil {
		t.Fatal(err)
	}
	sec := snap.Section("f")
	for i, v := range vals {
		got := sec.F64(string(rune('a' + i)))
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("val %d: bits %#x, want %#x", i, math.Float64bits(got), math.Float64bits(v))
		}
	}
}

func TestDeterministicBytes(t *testing.T) {
	if !bytes.Equal(sampleStream(), sampleStream()) {
		t.Fatal("identical writers produced different streams")
	}
	if Hash(sampleStream()) != Hash(sampleStream()) {
		t.Fatal("hash not deterministic")
	}
}

func TestStickyErrors(t *testing.T) {
	snap, err := Decode(sampleStream())
	if err != nil {
		t.Fatal(err)
	}
	a := snap.Section("alpha")
	if got := a.U64("missing"); got != 0 {
		t.Errorf("missing field returned %d", got)
	}
	var fe *FormatError
	if !errors.As(a.Err(), &fe) || fe.Field != "missing" {
		t.Fatalf("err = %v, want FormatError on field 'missing'", a.Err())
	}
	// The first error sticks even after later failures.
	a.String("u") // type mismatch would be a second error
	if !errors.As(a.Err(), &fe) || fe.Field != "missing" {
		t.Fatalf("sticky error replaced: %v", a.Err())
	}

	snap2, _ := Decode(sampleStream())
	b := snap2.Section("alpha")
	b.String("u") // wrong type
	if !errors.As(b.Err(), &fe) || !strings.Contains(fe.Msg, "type") {
		t.Fatalf("type mismatch error = %v", b.Err())
	}

	miss := snap2.Section("nope")
	if miss.U64("x") != 0 || miss.Err() == nil {
		t.Fatal("missing section not reported")
	}
	if !errors.As(miss.Err(), &fe) || fe.Section != "nope" {
		t.Fatalf("missing section error = %v", miss.Err())
	}
}

func TestRejectLatches(t *testing.T) {
	snap, _ := Decode(sampleStream())
	a := snap.Section("alpha")
	a.Reject("u", "value %d out of range", 7)
	var fe *FormatError
	if !errors.As(a.Err(), &fe) || fe.Field != "u" {
		t.Fatalf("Reject did not latch: %v", a.Err())
	}
}

func TestDecodeBadMagic(t *testing.T) {
	for _, in := range [][]byte{nil, {}, []byte("FTLSNAX\x00rest"), []byte("short")} {
		if _, err := Decode(in); !errors.Is(err, ErrBadMagic) {
			t.Errorf("Decode(%q) err = %v, want ErrBadMagic", in, err)
		}
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	data := sampleStream()
	binary.LittleEndian.PutUint16(data[8:], FormatVersion+1)
	_, err := Decode(data)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != FormatVersion+1 {
		t.Fatalf("err = %v, want VersionError", err)
	}
}

func TestDecodeTruncations(t *testing.T) {
	data := sampleStream()
	for n := 0; n < len(data); n++ {
		_, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("Decode of %d/%d bytes succeeded", n, len(data))
		}
		var ve *VersionError
		var fe *FormatError
		if !errors.Is(err, ErrBadMagic) && !errors.As(err, &ve) && !errors.As(err, &fe) {
			t.Fatalf("truncation at %d: untyped error %v", n, err)
		}
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	data := append(sampleStream(), 0xAA)
	var fe *FormatError
	if _, err := Decode(data); !errors.As(err, &fe) {
		t.Fatalf("err = %v, want FormatError on trailing bytes", err)
	}
}

func TestDecodeHugeCounts(t *testing.T) {
	// A declared section/field/array count far beyond the input must be
	// rejected before allocation, not trusted.
	var buf []byte
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, FormatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, 0xFFFFFFFF)
	var fe *FormatError
	if _, err := Decode(buf); !errors.As(err, &fe) {
		t.Fatalf("huge section count: err = %v", err)
	}

	w := NewWriter()
	w.Section("s").U64s("a", []uint64{1})
	data := streamBytes(w)
	// Corrupt the array count (last 12 bytes are count + one element).
	binary.LittleEndian.PutUint32(data[len(data)-12:], 0xFFFFFF)
	if _, err := Decode(data); !errors.As(err, &fe) {
		t.Fatalf("huge array count: err = %v", err)
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	w := NewWriter()
	w.Section("dup").U64("a", 1)
	w.Section("dup").U64("b", 2)
	var fe *FormatError
	if _, err := Decode(streamBytes(w)); !errors.As(err, &fe) || fe.Section != "dup" {
		t.Fatalf("err = %v, want duplicate-section FormatError", err)
	}
}

func TestWriteJSON(t *testing.T) {
	snap, err := Decode(sampleStream())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"format": "ftlhammer-snapshot"`,
		`"name": "alpha"`,
		`"type": "u64"`,
		`"244837814094590"`, // 0xDEADBEEFCAFE in decimal, as a string
		`"hello"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON export missing %q:\n%s", want, out)
		}
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	snap2, _ := Decode(sampleStream())
	if err := snap2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("JSON export not deterministic")
	}
}

func TestHashKnownValue(t *testing.T) {
	// FNV-1a of the empty input is the offset basis.
	if got := Hash(nil); got != 14695981039346656037 {
		t.Fatalf("Hash(nil) = %d", got)
	}
	if Hash([]byte("a")) == Hash([]byte("b")) {
		t.Fatal("hash collision on trivial inputs")
	}
}

// streamBytes assembles a snapshot stream in memory.
func streamBytes(w *Writer) []byte {
	var b bytes.Buffer
	w.WriteTo(&b)
	return b.Bytes()
}
