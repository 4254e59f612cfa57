package nand

import (
	"bytes"
	"testing"
	"testing/quick"

	"ftlhammer/internal/sim"
)

func testArray(opts ...Option) *Array {
	return New(DefaultGeometry(), DefaultLatency(), opts...)
}

func page(b byte) []byte {
	p := make([]byte, DefaultGeometry().PageBytes)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestGeometryCounts(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.TotalBlocks() != 4*2*2*64 {
		t.Fatalf("TotalBlocks = %d", g.TotalBlocks())
	}
	if c := g.TotalPages() * uint64(g.PageBytes); c != 1<<30 {
		t.Fatalf("capacity = %d, want 1 GiB", c)
	}
	if err := TinyGeometry().Validate(); err != nil {
		t.Fatal(err)
	}
	if bad := (Geometry{}); bad.Validate() == nil {
		t.Fatal("zero geometry accepted")
	}
}

func TestBlockPageArithmetic(t *testing.T) {
	g := DefaultGeometry()
	f := func(raw uint64) bool {
		ppn := PPN(raw % g.TotalPages())
		b := g.BlockOf(ppn)
		i := g.PageIndexOf(ppn)
		return g.FirstPPN(b)+PPN(i) == ppn && i < g.PagesPerBlock && b < g.TotalBlocks()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	a := testArray()
	want := page(0xAB)
	if err := a.Program(0, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := a.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read data differs from programmed data")
	}
}

func TestReadErasedReturnsFF(t *testing.T) {
	a := testArray()
	got := make([]byte, a.Geometry().PageBytes)
	if err := a.Read(5, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0xFF {
			t.Fatalf("erased page byte = %#x, want 0xFF", b)
		}
	}
	if a.Stats().ReadErased != 1 {
		t.Fatal("ReadErased not counted")
	}
}

func TestNoInPlaceWrite(t *testing.T) {
	a := testArray()
	if err := a.Program(0, page(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Program(0, page(2)); err == nil {
		t.Fatal("in-place program accepted")
	}
	if a.Stats().FailedProgs != 1 {
		t.Fatal("failed program not counted")
	}
}

func TestSequentialProgramOrder(t *testing.T) {
	a := testArray()
	if err := a.Program(2, page(1)); err == nil {
		t.Fatal("out-of-order program accepted")
	}
	if err := a.Program(0, page(1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Program(1, page(2)); err != nil {
		t.Fatal(err)
	}
}

func TestEraseRecyclesBlock(t *testing.T) {
	a := testArray()
	g := a.Geometry()
	for i := 0; i < g.PagesPerBlock; i++ {
		if err := a.Program(PPN(i), page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Program(0, page(9)); err == nil {
		t.Fatal("full block accepted a program")
	}
	if err := a.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	if a.Stats().WearMax != 1 {
		t.Fatal("erase count not tracked")
	}
	if err := a.Program(0, page(9)); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
	got := make([]byte, g.PageBytes)
	if err := a.Read(1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xFF {
		t.Fatal("erase did not clear page 1")
	}
}

func TestEnduranceRetiresBlocks(t *testing.T) {
	a := testArray(WithEndurance(3))
	for i := 0; i < 3; i++ {
		if err := a.EraseBlock(7); err != nil {
			t.Fatal(err)
		}
	}
	if !a.IsBad(7) {
		t.Fatal("block not retired at endurance limit")
	}
	if err := a.EraseBlock(7); err == nil {
		t.Fatal("erase of bad block accepted")
	}
	if err := a.Program(a.Geometry().FirstPPN(7), page(1)); err == nil {
		t.Fatal("program to bad block accepted")
	}
	if a.Stats().BadBlocks != 1 {
		t.Fatal("bad block not counted")
	}
}

func TestOutOfRangeOps(t *testing.T) {
	a := testArray()
	buf := make([]byte, a.Geometry().PageBytes)
	if err := a.Read(PPN(a.Geometry().TotalPages()), buf); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := a.Program(PPN(a.Geometry().TotalPages()), buf); err == nil {
		t.Fatal("out-of-range program accepted")
	}
	if err := a.EraseBlock(a.Geometry().TotalBlocks()); err == nil {
		t.Fatal("out-of-range erase accepted")
	}
	if err := a.Read(0, buf[:8]); err == nil {
		t.Fatal("short read buffer accepted")
	}
	if err := a.Program(0, buf[:8]); err == nil {
		t.Fatal("short program buffer accepted")
	}
}

func TestBusyTimeAccumulates(t *testing.T) {
	a := testArray()
	_ = a.Program(0, page(1))
	buf := make([]byte, a.Geometry().PageBytes)
	_ = a.Read(0, buf)
	_ = a.EraseBlock(1)
	lat := a.Latency()
	want := lat.Program + lat.Read + lat.Erase
	if got := a.Stats().BusyTime; got != want {
		t.Fatalf("BusyTime = %v, want %v", got, want)
	}
}

func TestProgramCopiesData(t *testing.T) {
	a := testArray()
	data := page(5)
	if err := a.Program(0, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 99 // caller mutates its buffer afterwards
	got := make([]byte, len(data))
	if err := a.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatal("array aliased the caller's buffer")
	}
}

func BenchmarkProgramEraseCycle(b *testing.B) {
	a := New(DefaultGeometry(), Latency{Read: sim.Microsecond, Program: sim.Microsecond, Erase: sim.Microsecond})
	g := a.Geometry()
	data := page(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ppn := PPN(i % g.PagesPerBlock)
		if ppn == 0 && i > 0 {
			if err := a.EraseBlock(0); err != nil {
				b.Fatal(err)
			}
		}
		if err := a.Program(ppn, data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadCountersRepeat checks the array's share of next-event
// hammering: k more repetitions of a read stream add k times one
// repetition's counter growth.
func TestReadCountersRepeat(t *testing.T) {
	a := testArray()
	if !a.Repeatable() {
		t.Fatal("array without injector not repeatable")
	}
	if err := a.Program(0, page(1)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, a.Geometry().PageBytes)
	before := a.ReadCounters()
	for _, ppn := range []PPN{0, 1} {
		if err := a.Read(ppn, buf); err != nil {
			t.Fatal(err)
		}
	}
	once := a.ReadCounters().Sub(before)
	lat := a.Latency().Read
	if once != (ReadCounters{Reads: 2, ReadErased: 1, BusyTime: 2 * lat}) {
		t.Fatalf("one repetition grew the counters by %+v", once)
	}
	a.AddReads(once, 3)
	if got, want := a.ReadCounters().Sub(before), (ReadCounters{Reads: 8, ReadErased: 4, BusyTime: 8 * lat}); got != want {
		t.Errorf("after 3 added: %+v, want %+v", got, want)
	}
	if a.BusyTime() != a.Stats().BusyTime {
		t.Errorf("BusyTime %v, Stats %v", a.BusyTime(), a.Stats().BusyTime)
	}
}
