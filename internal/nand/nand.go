package nand

import (
	"errors"
	"fmt"
	"math"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/sim"
)

// Sentinel media errors. The NVMe front end classifies these as transient
// and retryable (errors.Is through the FTL's %w wrapping); everything else
// the array returns is a firmware programming error, not a media fault.
var (
	// ErrMediaRead is an uncorrectable media failure on a page read:
	// the die returned a status error instead of data.
	ErrMediaRead = errors.New("nand: uncorrectable media read failure")
	// ErrMediaProgram is a program-status failure: the page is consumed
	// (the block's write pointer advances past it) but holds no data,
	// and firmware must program the payload elsewhere.
	ErrMediaProgram = errors.New("nand: program-status failure")
)

// PPN is a flat physical page number across the whole array.
type PPN uint64

// InvalidPPN marks an unmapped translation.
const InvalidPPN = PPN(^uint64(0))

// Geometry describes the flash array organization.
type Geometry struct {
	Channels      int // independent channels
	DiesPerChan   int // dies per channel
	PlanesPerDie  int // planes per die
	BlocksPerPlan int // blocks per plane
	PagesPerBlock int // pages per block
	PageBytes     int // bytes per page
}

// DefaultGeometry returns a 1 GiB array: 4 channels x 2 dies x 2 planes x
// 64 blocks x 256 pages x 4 KiB, matching the paper's 1 GiB emulated SSD
// (§4.1).
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:      4,
		DiesPerChan:   2,
		PlanesPerDie:  2,
		BlocksPerPlan: 64,
		PagesPerBlock: 256,
		PageBytes:     4096,
	}
}

// TinyGeometry returns a 4 MiB array (2 channels x 1 die x 1 plane x
// 8 blocks x 64 pages x 4 KiB) sized for fast unit tests.
func TinyGeometry() Geometry {
	return Geometry{
		Channels:      2,
		DiesPerChan:   1,
		PlanesPerDie:  1,
		BlocksPerPlan: 8,
		PagesPerBlock: 64,
		PageBytes:     4096,
	}
}

// Validate reports whether the geometry is well formed.
func (g Geometry) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"DiesPerChan", g.DiesPerChan},
		{"PlanesPerDie", g.PlanesPerDie},
		{"BlocksPerPlan", g.BlocksPerPlan},
		{"PagesPerBlock", g.PagesPerBlock},
		{"PageBytes", g.PageBytes},
	} {
		if f.v <= 0 {
			return fmt.Errorf("nand: %s = %d must be positive", f.name, f.v)
		}
	}
	if p := g.TotalPages(); p > math.MaxUint32-uint64(slotBase) {
		return fmt.Errorf("nand: %d pages exceed the page store's 32-bit index", p)
	}
	return nil
}

// TotalBlocks returns the number of erase blocks in the array.
func (g Geometry) TotalBlocks() int {
	return g.Channels * g.DiesPerChan * g.PlanesPerDie * g.BlocksPerPlan
}

// TotalPages returns the number of pages in the array.
func (g Geometry) TotalPages() uint64 {
	return uint64(g.TotalBlocks()) * uint64(g.PagesPerBlock)
}

// BlockOf returns the erase block containing ppn.
func (g Geometry) BlockOf(ppn PPN) int {
	return int(uint64(ppn) / uint64(g.PagesPerBlock))
}

// PageIndexOf returns the page offset of ppn within its block.
func (g Geometry) PageIndexOf(ppn PPN) int {
	return int(uint64(ppn) % uint64(g.PagesPerBlock))
}

// FirstPPN returns the first page of a block.
func (g Geometry) FirstPPN(block int) PPN {
	return PPN(uint64(block) * uint64(g.PagesPerBlock))
}

// Latency holds per-operation service times (typical SLC/MLC-ish values).
type Latency struct {
	Read    sim.Duration // page read (tR + transfer)
	Program sim.Duration // page program
	Erase   sim.Duration // block erase
}

// DefaultLatency returns plausible commodity-flash timings.
func DefaultLatency() Latency {
	return Latency{
		Read:    60 * sim.Microsecond,
		Program: 300 * sim.Microsecond,
		Erase:   3 * sim.Millisecond,
	}
}

// Stats aggregates array activity.
type Stats struct {
	Reads          uint64
	Programs       uint64
	Erases         uint64
	ReadErased     uint64       // reads of never-programmed pages
	BusyTime       sim.Duration // total device-time consumed, all channels
	WearMax        uint32       // highest per-block erase count
	BadBlocks      int          // blocks retired for wear
	FailedProgs    uint64       // programs rejected (order, state, bad block)
	MediaReadFails uint64       // injected uncorrectable read failures
	MediaProgFails uint64       // injected program-status failures
}

// Page slots: what each page holds. A slot at or above slotBase is the
// index of the page buffer holding the page's data.
const (
	slotFree   uint32 = iota // erased
	slotFailed               // consumed by a failed program, holds no data
	slotBase
)

// Array is the flash device. It is not safe for concurrent use.
type Array struct {
	geo Geometry
	lat Latency
	// Endurance is the erase count at which a block goes bad; zero
	// means unlimited.
	endurance uint32

	// slot is the page store, one entry per page: slotFree, slotFailed
	// or the index of the page's buffer in bufs.
	slot      []uint32
	nextPage  []int // per block: next programmable page index
	eraseCnt  []uint32
	badBlocks []bool
	inj       *faults.Injector
	stats     Stats
	// bufs holds the page buffers (indices below slotBase unused), and
	// refs[i] counts the pages whose slot is i: CopyProgram shares a
	// buffer instead of copying it. EraseBlock releases a buffer when
	// its count reaches 0, and spare keeps the released ones for
	// Program, so steady-state write traffic (program/erase cycles over
	// a bounded page population) does not allocate.
	bufs  [][]byte
	refs  []uint32
	spare []uint32
}

// Option configures an Array.
type Option func(*Array)

// WithEndurance retires blocks after n erases (failure injection for wear
// tests). Zero disables.
func WithEndurance(n uint32) Option {
	return func(a *Array) { a.endurance = n }
}

// WithFaults attaches a fault injector; KindNANDRead and KindNANDProgram
// rules (region-scoped by PPN) fire on this array's Read/Program paths.
// A nil injector is valid and equivalent to omitting the option.
func WithFaults(inj *faults.Injector) Option {
	return func(a *Array) { a.inj = inj }
}

// New builds a flash array. It panics on invalid geometry.
func New(geo Geometry, lat Latency, opts ...Option) *Array {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	a := &Array{
		geo:       geo,
		lat:       lat,
		slot:      make([]uint32, geo.TotalPages()),
		nextPage:  make([]int, geo.TotalBlocks()),
		eraseCnt:  make([]uint32, geo.TotalBlocks()),
		badBlocks: make([]bool, geo.TotalBlocks()),
		bufs:      make([][]byte, slotBase),
		refs:      make([]uint32, slotBase),
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Geometry returns the array organization.
func (a *Array) Geometry() Geometry { return a.geo }

// Latency returns the per-operation timings.
func (a *Array) Latency() Latency { return a.lat }

// Stats returns a copy of the counters.
func (a *Array) Stats() Stats { return a.stats }

// BusyTime returns Stats().BusyTime without copying the counters.
func (a *Array) BusyTime() sim.Duration { return a.stats.BusyTime }

// ReadCounters is the part of Stats a page read changes on a repeatable
// array (see Repeatable).
type ReadCounters struct {
	Reads, ReadErased uint64
	BusyTime          sim.Duration
}

// Sub returns the counters' growth since before.
func (c ReadCounters) Sub(before ReadCounters) ReadCounters {
	return ReadCounters{
		Reads:      c.Reads - before.Reads,
		ReadErased: c.ReadErased - before.ReadErased,
		BusyTime:   c.BusyTime - before.BusyTime,
	}
}

// ReadCounters returns the read counters.
func (a *Array) ReadCounters() ReadCounters {
	return ReadCounters{a.stats.Reads, a.stats.ReadErased, a.stats.BusyTime}
}

// AddReads adds k times d to the read counters: the array's share of k
// more repetitions of a read stream whose one repetition grew them by d.
func (a *Array) AddReads(d ReadCounters, k uint64) {
	a.stats.Reads += k * d.Reads
	a.stats.ReadErased += k * d.ReadErased
	a.stats.BusyTime += sim.Duration(k) * d.BusyTime
}

// Repeatable reports whether a page read changes nothing but its
// ReadCounters: no fault injector is attached.
func (a *Array) Repeatable() bool { return a.inj == nil }

// IsBad reports whether a block has been retired.
func (a *Array) IsBad(block int) bool { return a.badBlocks[block] }

// checkPPN validates a page number.
func (a *Array) checkPPN(ppn PPN) error {
	if uint64(ppn) >= a.geo.TotalPages() {
		return fmt.Errorf("nand: ppn %d out of range (%d pages)", ppn, a.geo.TotalPages())
	}
	return nil
}

// Read copies a full page into buf (len(buf) must be PageBytes). Reading a
// never-programmed page returns the erased pattern (0xFF), as real flash
// does.
func (a *Array) Read(ppn PPN, buf []byte) error {
	if err := a.checkPPN(ppn); err != nil {
		return err
	}
	if len(buf) != a.geo.PageBytes {
		return fmt.Errorf("nand: read buffer %d bytes, want %d", len(buf), a.geo.PageBytes)
	}
	if err := a.sense(ppn); err != nil {
		return err
	}
	if s := a.slot[ppn]; s >= slotBase {
		copy(buf, a.bufs[s])
		return nil
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	return nil
}

// Sense reads a page into the die's page register without transferring
// it to the host: the first half of a copyback (see CopyProgram). It
// charges, counts and fails exactly as Read does.
func (a *Array) Sense(ppn PPN) error {
	if err := a.checkPPN(ppn); err != nil {
		return err
	}
	return a.sense(ppn)
}

// sense charges one page read and decides whether it fails.
func (a *Array) sense(ppn PPN) error {
	a.stats.Reads++
	a.stats.BusyTime += a.lat.Read
	if hit, _ := a.inj.Decide(faults.KindNANDRead, uint64(ppn)); hit {
		a.stats.MediaReadFails++
		return fmt.Errorf("nand: read of ppn %d: %w", ppn, ErrMediaRead)
	}
	switch a.slot[ppn] {
	case slotFree:
		a.stats.ReadErased++
	case slotFailed:
		// Only pages consumed by an injected program-status failure
		// are programmed-but-dataless; reading one back is itself an
		// uncorrectable media read.
		a.stats.MediaReadFails++
		return fmt.Errorf("nand: read of failed-program ppn %d: %w", ppn, ErrMediaRead)
	}
	return nil
}

// Program writes a full page. It fails if the page is not free, is written
// out of order within its block, or the block is retired.
func (a *Array) Program(ppn PPN, data []byte) error {
	if err := a.checkPPN(ppn); err != nil {
		return err
	}
	if len(data) != a.geo.PageBytes {
		return fmt.Errorf("nand: program buffer %d bytes, want %d", len(data), a.geo.PageBytes)
	}
	if err := a.program(ppn); err != nil {
		return err
	}
	b := a.takeBuf()
	copy(a.bufs[b], data)
	a.slot[ppn] = b
	return nil
}

// CopyProgram programs dst with src's contents, the second half of a
// copyback after Sense(src): the data never leaves the device, so dst
// shares src's buffer, and src keeps its data until its block is
// erased. It charges, counts and fails exactly as Program(dst) does. An
// erased src programs the erased pattern, as Read then Program would.
func (a *Array) CopyProgram(dst, src PPN) error {
	if err := a.checkPPN(dst); err != nil {
		return err
	}
	if err := a.checkPPN(src); err != nil {
		return err
	}
	if a.slot[src] == slotFailed {
		return fmt.Errorf("nand: copyback from failed-program ppn %d", src)
	}
	if err := a.program(dst); err != nil {
		return err
	}
	b := a.slot[src]
	if b == slotFree {
		b = a.takeBuf()
		for i := range a.bufs[b] {
			a.bufs[b][i] = 0xFF
		}
	} else {
		a.refs[b]++
	}
	a.slot[dst] = b
	return nil
}

// program checks that ppn may be programmed now, decides whether the
// program fails, and charges it. On a nil error the caller stores the
// page's data in its slot.
func (a *Array) program(ppn PPN) error {
	block := a.geo.BlockOf(ppn)
	if a.badBlocks[block] {
		a.stats.FailedProgs++
		return fmt.Errorf("nand: program to bad block %d", block)
	}
	if a.slot[ppn] != slotFree {
		a.stats.FailedProgs++
		return fmt.Errorf("nand: in-place program of ppn %d (erase required)", ppn)
	}
	if idx := a.geo.PageIndexOf(ppn); idx != a.nextPage[block] {
		a.stats.FailedProgs++
		return fmt.Errorf("nand: out-of-order program: block %d page %d, expected page %d",
			block, idx, a.nextPage[block])
	}
	if hit, _ := a.inj.Decide(faults.KindNANDProgram, uint64(ppn)); hit {
		// Program-status failure: the page is consumed (in-order
		// constraint means firmware cannot come back to it) but holds
		// no data. Advancing nextPage keeps the array's write pointer
		// in lockstep with the FTL's, so a retried write lands on the
		// next page of the same block instead of cascading into
		// out-of-order errors.
		a.slot[ppn] = slotFailed
		a.nextPage[block]++
		a.stats.FailedProgs++
		a.stats.MediaProgFails++
		a.stats.BusyTime += a.lat.Program
		return fmt.Errorf("nand: program of ppn %d: %w", ppn, ErrMediaProgram)
	}
	a.nextPage[block]++
	a.stats.Programs++
	a.stats.BusyTime += a.lat.Program
	return nil
}

// takeBuf returns a buffer with a reference count of 1, reusing a
// released one when there is one.
func (a *Array) takeBuf() uint32 {
	if n := len(a.spare); n > 0 {
		b := a.spare[n-1]
		a.spare = a.spare[:n-1]
		a.refs[b] = 1
		return b
	}
	a.bufs = append(a.bufs, make([]byte, a.geo.PageBytes))
	a.refs = append(a.refs, 1)
	return uint32(len(a.bufs) - 1)
}

// EraseBlock resets every page in the block to free. Wear is tracked and,
// past the configured endurance, the block is retired.
func (a *Array) EraseBlock(block int) error {
	if block < 0 || block >= a.geo.TotalBlocks() {
		return fmt.Errorf("nand: block %d out of range", block)
	}
	if a.badBlocks[block] {
		return fmt.Errorf("nand: erase of bad block %d", block)
	}
	first := a.geo.FirstPPN(block)
	slots := a.slot[first : first+PPN(a.geo.PagesPerBlock)]
	for _, b := range slots {
		if b < slotBase {
			continue
		}
		if a.refs[b]--; a.refs[b] == 0 {
			a.spare = append(a.spare, b)
		}
	}
	clear(slots)
	a.nextPage[block] = 0
	a.eraseCnt[block]++
	if a.eraseCnt[block] > a.stats.WearMax {
		a.stats.WearMax = a.eraseCnt[block]
	}
	a.stats.Erases++
	a.stats.BusyTime += a.lat.Erase
	if a.endurance > 0 && a.eraseCnt[block] >= a.endurance {
		a.badBlocks[block] = true
		a.stats.BadBlocks++
	}
	return nil
}
