package nand

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/sim"
	"ftlhammer/internal/snapshot"
)

// mapArray is the reference page store the slot table replaced: a map
// from PPN to a private copy of each page, with GC's relocation done as
// Read into a host buffer and Program from it. It keeps the same
// counters, charges, fault decisions and snapshot encoding, so a
// sequence of operations must leave it and an Array indistinguishable.
type mapArray struct {
	geo       Geometry
	lat       Latency
	endurance uint32
	state     []byte // 0 free, 1 programmed (with or without data)
	data      map[PPN][]byte
	nextPage  []int
	eraseCnt  []uint32
	badBlocks []bool
	inj       *faults.Injector
	stats     Stats
}

func newMapArray(geo Geometry, lat Latency, endurance uint32) *mapArray {
	return &mapArray{
		geo: geo, lat: lat, endurance: endurance,
		state:     make([]byte, geo.TotalPages()),
		data:      map[PPN][]byte{},
		nextPage:  make([]int, geo.TotalBlocks()),
		eraseCnt:  make([]uint32, geo.TotalBlocks()),
		badBlocks: make([]bool, geo.TotalBlocks()),
	}
}

func (m *mapArray) checkPPN(ppn PPN) error {
	if uint64(ppn) >= m.geo.TotalPages() {
		return fmt.Errorf("nand: ppn %d out of range (%d pages)", ppn, m.geo.TotalPages())
	}
	return nil
}

func (m *mapArray) Read(ppn PPN, buf []byte) error {
	if err := m.checkPPN(ppn); err != nil {
		return err
	}
	m.stats.Reads++
	m.stats.BusyTime += m.lat.Read
	if hit, _ := m.inj.Decide(faults.KindNANDRead, uint64(ppn)); hit {
		m.stats.MediaReadFails++
		return fmt.Errorf("nand: read of ppn %d: %w", ppn, ErrMediaRead)
	}
	if m.state[ppn] == 0 {
		m.stats.ReadErased++
		for i := range buf {
			buf[i] = 0xFF
		}
		return nil
	}
	page, ok := m.data[ppn]
	if !ok {
		m.stats.MediaReadFails++
		return fmt.Errorf("nand: read of failed-program ppn %d: %w", ppn, ErrMediaRead)
	}
	copy(buf, page)
	return nil
}

func (m *mapArray) Program(ppn PPN, data []byte) error {
	if err := m.checkPPN(ppn); err != nil {
		return err
	}
	block := m.geo.BlockOf(ppn)
	if m.badBlocks[block] {
		m.stats.FailedProgs++
		return fmt.Errorf("nand: program to bad block %d", block)
	}
	if m.state[ppn] == 1 {
		m.stats.FailedProgs++
		return fmt.Errorf("nand: in-place program of ppn %d (erase required)", ppn)
	}
	if idx := m.geo.PageIndexOf(ppn); idx != m.nextPage[block] {
		m.stats.FailedProgs++
		return fmt.Errorf("nand: out-of-order program: block %d page %d, expected page %d",
			block, idx, m.nextPage[block])
	}
	if hit, _ := m.inj.Decide(faults.KindNANDProgram, uint64(ppn)); hit {
		m.state[ppn] = 1
		m.nextPage[block]++
		m.stats.FailedProgs++
		m.stats.MediaProgFails++
		m.stats.BusyTime += m.lat.Program
		return fmt.Errorf("nand: program of ppn %d: %w", ppn, ErrMediaProgram)
	}
	m.data[ppn] = append([]byte(nil), data...)
	m.state[ppn] = 1
	m.nextPage[block]++
	m.stats.Programs++
	m.stats.BusyTime += m.lat.Program
	return nil
}

func (m *mapArray) EraseBlock(block int) error {
	if block < 0 || block >= m.geo.TotalBlocks() {
		return fmt.Errorf("nand: block %d out of range", block)
	}
	if m.badBlocks[block] {
		return fmt.Errorf("nand: erase of bad block %d", block)
	}
	first := m.geo.FirstPPN(block)
	for i := 0; i < m.geo.PagesPerBlock; i++ {
		m.state[first+PPN(i)] = 0
		delete(m.data, first+PPN(i))
	}
	m.nextPage[block] = 0
	m.eraseCnt[block]++
	if m.eraseCnt[block] > m.stats.WearMax {
		m.stats.WearMax = m.eraseCnt[block]
	}
	m.stats.Erases++
	m.stats.BusyTime += m.lat.Erase
	if m.endurance > 0 && m.eraseCnt[block] >= m.endurance {
		m.badBlocks[block] = true
		m.stats.BadBlocks++
	}
	return nil
}

// SaveTo writes the snapshot section in the format Array.LoadFrom reads,
// with the data keys sorted from the map.
func (m *mapArray) SaveTo(w *snapshot.Writer) {
	s := w.Section(snapSection)
	s.Bytes("state", append([]byte(nil), m.state...))
	keys := make([]uint64, 0, len(m.data))
	for ppn := range m.data {
		keys = append(keys, uint64(ppn))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var blob []byte
	for _, k := range keys {
		blob = append(blob, m.data[PPN(k)]...)
	}
	s.U64s("data_keys", keys)
	s.Bytes("data", blob)
	next := make([]uint64, len(m.nextPage))
	for i, n := range m.nextPage {
		next[i] = uint64(n)
	}
	s.U64s("next_page", next)
	s.U32s("erase_cnt", m.eraseCnt)
	bad := make([]byte, len(m.badBlocks))
	for i, b := range m.badBlocks {
		if b {
			bad[i] = 1
		}
	}
	s.Bytes("bad_blocks", bad)
	st := m.stats
	s.U64s("stats", []uint64{
		st.Reads, st.Programs, st.Erases, st.ReadErased,
		uint64(st.BusyTime), uint64(st.WearMax), uint64(st.BadBlocks),
		st.FailedProgs, st.MediaReadFails, st.MediaProgFails,
	})
}

// storeGeometry is small enough that random page numbers land on pages
// with data, pages a failed program consumed and erased pages alike.
func storeGeometry() Geometry {
	return Geometry{Channels: 2, DiesPerChan: 1, PlanesPerDie: 1, BlocksPerPlan: 3, PagesPerBlock: 4, PageBytes: 8}
}

// checkStore audits the page store's bookkeeping: every buffer's
// reference count is the number of pages whose slot names it (so the
// counts sum to the pages with data), and the spare list holds each
// count-0 buffer exactly once.
func checkStore(a *Array) error {
	refs := make([]uint32, len(a.bufs))
	for ppn, b := range a.slot {
		if b >= slotBase {
			if int(b) >= len(a.bufs) {
				return fmt.Errorf("ppn %d names buffer %d of %d", ppn, b, len(a.bufs))
			}
			refs[b]++
		}
	}
	idle := 0
	for b := int(slotBase); b < len(a.bufs); b++ {
		if refs[b] != a.refs[b] {
			return fmt.Errorf("buffer %d: count %d, but %d pages name it", b, a.refs[b], refs[b])
		}
		if refs[b] == 0 {
			idle++
		}
	}
	seen := map[uint32]bool{}
	for _, b := range a.spare {
		if b < slotBase || int(b) >= len(a.bufs) || a.refs[b] != 0 || seen[b] {
			return fmt.Errorf("spare list %v holds buffer %d (count %d)", a.spare, b, a.refs[b])
		}
		seen[b] = true
	}
	if len(a.spare) != idle {
		return fmt.Errorf("%d buffers have count 0 but %d are spare", idle, len(a.spare))
	}
	return nil
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

func saved(save func(*snapshot.Writer)) []byte {
	w := snapshot.NewWriter()
	save(w)
	return w.Bytes()
}

// runPageStore applies the operations ops encodes to an Array and to the
// map reference, and fails on the first difference in returned bytes,
// errors, Stats or snapshot bytes, or on a broken store invariant. Each
// operation takes three bytes: a kind and two operands.
func runPageStore(t *testing.T, ops []byte) {
	geo := storeGeometry()
	lat := Latency{Read: 3, Program: 5, Erase: 7}
	var endurance uint32
	if len(ops) > 0 {
		endurance, ops = uint32(ops[0]%4)*6, ops[1:]
	}
	a := New(geo, lat, WithEndurance(endurance))
	m := newMapArray(geo, lat, endurance)
	world := sim.NewWorld(1)
	pages, blocks := geo.TotalPages(), geo.TotalBlocks()
	got, want := make([]byte, geo.PageBytes), make([]byte, geo.PageBytes)
	written := uint64(0)

	// next returns block b's next programmable page, or with hi set a
	// page that is usually not programmable.
	next := func(b, hi byte) PPN {
		if hi&0x80 != 0 {
			return PPN(uint64(hi&0x7F) % (pages + 1))
		}
		block := int(b) % blocks
		return geo.FirstPPN(block) + PPN(m.nextPage[block]%geo.PagesPerBlock)
	}
	faulted := false
	for i := 0; i+2 < len(ops); i += 3 {
		kind, x, y := ops[i]%8, ops[i+1], ops[i+2]
		var desc string
		var errA, errM error
		switch kind {
		case 0, 1:
			ppn := next(x, y)
			written++
			data := make([]byte, geo.PageBytes)
			binary.LittleEndian.PutUint64(data, written)
			desc = fmt.Sprintf("Program(%d)", ppn)
			errA, errM = a.Program(ppn, data), m.Program(ppn, data)
		case 2:
			ppn := PPN(uint64(x) % (pages + 1))
			desc = fmt.Sprintf("Read(%d)", ppn)
			errA, errM = a.Read(ppn, got), m.Read(ppn, want)
			if errA == nil && !bytes.Equal(got, want) {
				t.Fatalf("op %d %s: read %x, reference %x", i/3, desc, got, want)
			}
		case 3, 4:
			src, dst := PPN(uint64(x)%pages), next(y, 0)
			desc = fmt.Sprintf("copyback %d -> %d", src, dst)
			errA, errM = a.Sense(src), m.Read(src, want)
			if errA == nil && errM == nil {
				errA, errM = a.CopyProgram(dst, src), m.Program(dst, want)
			}
		case 5:
			block := int(x) % (blocks + 1)
			desc = fmt.Sprintf("EraseBlock(%d)", block)
			errA, errM = a.EraseBlock(block), m.EraseBlock(block)
		case 6:
			desc = "SaveTo+LoadFrom"
			snapA, snapM := saved(a.SaveTo), saved(m.SaveTo)
			if !bytes.Equal(snapA, snapM) {
				t.Fatalf("op %d: snapshot bytes differ from the reference", i/3)
			}
			snap, err := snapshot.Decode(snapM)
			if err != nil {
				t.Fatal(err)
			}
			errA = a.LoadFrom(snap)
		case 7:
			// The next operation's first read or program fails.
			k := faults.KindNANDRead
			if x&1 == 1 {
				k = faults.KindNANDProgram
			}
			plan := faults.Plan{Rules: []faults.Rule{{Kind: k, Every: 1, Count: 1}}}
			a.inj, m.inj = faults.New(plan, world), faults.New(plan, world)
			faulted = true
			continue
		}
		if faulted {
			a.inj, m.inj, faulted = nil, nil, false
		}
		if !sameErr(errA, errM) {
			t.Fatalf("op %d %s: error %v, reference %v", i/3, desc, errA, errM)
		}
		if a.Stats() != m.stats {
			t.Fatalf("op %d %s: stats %+v, reference %+v", i/3, desc, a.Stats(), m.stats)
		}
		if err := checkStore(a); err != nil {
			t.Fatalf("op %d %s: %v", i/3, desc, err)
		}
	}
	for ppn := PPN(0); uint64(ppn) < pages; ppn++ {
		errA, errM := a.Read(ppn, got), m.Read(ppn, want)
		if !sameErr(errA, errM) || (errA == nil && !bytes.Equal(got, want)) {
			t.Fatalf("final Read(%d): %x, %v; reference %x, %v", ppn, got, errA, want, errM)
		}
	}
	if !bytes.Equal(saved(a.SaveTo), saved(m.SaveTo)) {
		t.Fatal("final snapshot bytes differ from the reference")
	}
}

// TestPageStoreMatchesMapReference runs seeded random operation
// sequences through runPageStore.
func TestPageStoreMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for seq := 0; seq < 300; seq++ {
		ops := make([]byte, 1+3*200)
		r.Read(ops)
		t.Run(fmt.Sprint(seq), func(t *testing.T) { runPageStore(t, ops) })
	}
}

// FuzzPageStore runs fuzzer-chosen operation sequences through
// runPageStore.
func FuzzPageStore(f *testing.F) {
	// Program two pages, copy one back into another block and read the
	// source, copy the other back, erase the source block, program again
	// (reusing any released buffer), then read the first copy and save.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 3, 0, 1, 2, 0, 0, 3, 1, 0, 5, 0, 0, 0, 2, 0, 2, 4, 0, 6, 0, 0})
	f.Add([]byte{1, 7, 0, 0, 0, 0, 0, 7, 1, 0, 3, 0, 1, 2, 4, 0, 6, 0, 0, 5, 1, 0})
	f.Fuzz(runPageStore)
}

// TestLoadRejectsMalformedDataKeys checks that a snapshot whose data keys
// SaveTo could not have written is refused, naming the field.
func TestLoadRejectsMalformedDataKeys(t *testing.T) {
	geo := storeGeometry()
	a := New(geo, DefaultLatency())
	for ppn := PPN(0); ppn < 3; ppn++ {
		if err := a.Program(ppn, make([]byte, geo.PageBytes)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		keys []uint64
	}{
		{"valid", []uint64{0, 1, 2}},
		{"decreasing", []uint64{0, 2, 1}},
		{"repeated", []uint64{0, 1, 1}},
		{"free page with data", []uint64{0, 1, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := snapshot.NewWriter()
			a.SaveTo(w)
			snap, err := snapshot.Decode(w.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			// Re-encode the section with the field under test replaced.
			s := snap.Section(snapSection)
			w = snapshot.NewWriter()
			out := w.Section(snapSection)
			out.Bytes("state", s.Bytes("state"))
			out.U64s("data_keys", tc.keys)
			out.Bytes("data", s.Bytes("data"))
			out.U64s("next_page", s.U64s("next_page"))
			out.U32s("erase_cnt", s.U32s("erase_cnt"))
			out.Bytes("bad_blocks", s.Bytes("bad_blocks"))
			out.U64s("stats", s.U64s("stats"))
			bad, err := snapshot.Decode(w.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			err = New(geo, DefaultLatency()).LoadFrom(bad)
			if tc.name == "valid" {
				if err != nil {
					t.Fatalf("valid snapshot rejected: %v", err)
				}
				return
			}
			var fe *snapshot.FormatError
			if !errors.As(err, &fe) || fe.Field != "data_keys" {
				t.Fatalf("LoadFrom = %v, want a data_keys format error", err)
			}
		})
	}
}
