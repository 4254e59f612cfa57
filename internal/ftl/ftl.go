package ftl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/faults"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// LBA is a logical block address in 4 KiB units.
type LBA uint64

// EntryBytes is the size of one linear L2P entry.
const EntryBytes = 4

// unmappedEntry is the on-DRAM encoding of "no translation".
const unmappedEntry = uint32(0xFFFFFFFF)

// ErrUnaligned reports a buffer whose size is not exactly one block.
var ErrUnaligned = errors.New("ftl: buffer must be exactly one block")

// CorruptMappingError reports an L2P entry decoding to an impossible PPN —
// the "data corruption / bricking" outcome of §3.2 when a bitflip pushes a
// translation out of range.
type CorruptMappingError struct {
	LBA LBA
	PPN nand.PPN
}

func (e *CorruptMappingError) Error() string {
	return fmt.Sprintf("ftl: LBA %d maps to impossible PPN %d (corrupt translation)", e.LBA, e.PPN)
}

// CacheConfig models an optional CPU cache in front of the L2P DRAM
// (§5 mitigation). Direct-mapped over 64-byte lines.
type CacheConfig struct {
	Enabled bool
	// Lines is the number of 64-byte cache lines (power of two).
	Lines int
}

// Config assembles an FTL instance.
type Config struct {
	// NumLBAs is the exported logical capacity in blocks. It must leave
	// over-provisioning headroom below the flash geometry's page count.
	NumLBAs uint64
	// L2PBase is the DRAM physical address of the L2P table (linear
	// variant) or bucket array (hashed variant).
	L2PBase uint64
	// FirmwareBase is the DRAM address of firmware scratch state touched
	// on every I/O ("SPDK adds other accesses", §4.1). Defaults to just
	// past the table.
	FirmwareBase uint64
	// FirmwareTouchesPerIO is how many scratch lines the firmware
	// touches per request (default 1).
	FirmwareTouchesPerIO int
	// HammersPerIO repeats each L2P row activation (with an interleaved
	// conflicting access, like the testbed's cache-invalidation hack).
	// Default 1 = no amplification; the paper used 5.
	HammersPerIO int
	// Cache optionally caches L2P entries, absorbing activations.
	Cache CacheConfig
	// Hashed selects the keyed hash-table L2P layout (§5 mitigation,
	// also the [37] space-efficient layout).
	Hashed bool
	// HashKey is the device-specific randomization key for Hashed mode.
	HashKey uint64
	// GCFreeBlocksLow triggers garbage collection when the free-block
	// pool drops to this size (default 2).
	GCFreeBlocksLow int
}

// Stats aggregates FTL activity.
type Stats struct {
	HostReads      uint64
	HostWrites     uint64
	Trims          uint64
	ReadsUnmapped  uint64 // host reads that skipped flash
	GCRuns         uint64
	GCPagesMoved   uint64
	FlashPrograms  uint64 // includes GC relocation
	CorruptReads   uint64 // reads that hit a corrupt translation
	UncorrectedECC uint64 // reads failed by DRAM ECC
	CacheHits      uint64
	CacheMisses    uint64
	// StaleInvalidates counts overwrites whose old translation failed
	// the reverse-map ownership check (evidence of table corruption).
	StaleInvalidates uint64
	// L2PLookups counts translation loads (linear and hashed), i.e. how
	// often the mapping structure in device DRAM was consulted — the
	// access stream the paper's attack rides on (§4.1).
	L2PLookups uint64
	// InjectedFlips counts KindDRAMBitFlip faults applied to entries —
	// the synthetic rowhammer flips experiments aim at chosen LBAs.
	InjectedFlips uint64
}

// injectedFlipByte/injectedFlipBit locate the bit a KindDRAMBitFlip
// corrupts in the 4-byte entry: bit 4 of the low byte redirects the
// translation by 16 physical pages — far enough to land on another
// tenant's data, small enough to stay in range on any realistic
// geometry (matching the paper's single-bit L2P redirect, §3.2).
const (
	injectedFlipByte = 0
	injectedFlipBit  = 4
)

// FTL is the translation layer. It is not safe for concurrent use; it
// inherits the simulation World of the DRAM module it is built over.
type FTL struct {
	cfg   Config
	dram  *dram.Module
	flash *nand.Array
	world *sim.World

	totalPages uint64
	// reverse maps every physical page to the LBA stored there (or
	// invalidRev); real firmware keeps this in page out-of-band areas.
	// Entries are 32-bit (New bounds NumLBAs below invalidRev), which
	// halves the FTL's largest per-device array.
	reverse []uint32
	valid   []bool // per page: holds live data
	// validCount counts live pages per block (GC victim selection).
	validCount []int
	freeBlocks []int
	active     int // block currently receiving writes
	nextPage   int // next page index within active

	cache *l2pCache
	inGC  bool
	inj   *faults.Injector
	stats Stats
	// obs is the world's registry (nil disables; all uses are nil-safe).
	obs *obs.Registry
}

const invalidLBA = LBA(^uint64(0))

// invalidRev marks a page no LBA owns in the reverse map.
const invalidRev = ^uint32(0)

// New builds an FTL over the given DRAM module and flash array. The L2P
// region is initialized (all entries unmapped), which also primes ECC
// check bits when enabled.
func New(cfg Config, mem *dram.Module, flash *nand.Array) (*FTL, error) {
	geo := flash.Geometry()
	if cfg.NumLBAs == 0 {
		return nil, errors.New("ftl: NumLBAs must be positive")
	}
	if cfg.NumLBAs >= uint64(invalidRev) {
		return nil, fmt.Errorf("ftl: NumLBAs %d does not fit the 32-bit reverse map", cfg.NumLBAs)
	}
	if cfg.NumLBAs > geo.TotalPages()*15/16 {
		return nil, fmt.Errorf("ftl: NumLBAs %d leaves no over-provisioning (flash has %d pages)",
			cfg.NumLBAs, geo.TotalPages())
	}
	if cfg.HammersPerIO <= 0 {
		cfg.HammersPerIO = 1
	}
	if cfg.FirmwareTouchesPerIO < 0 {
		return nil, errors.New("ftl: negative FirmwareTouchesPerIO")
	}
	if cfg.FirmwareTouchesPerIO == 0 {
		cfg.FirmwareTouchesPerIO = 1
	}
	if cfg.GCFreeBlocksLow <= 0 {
		cfg.GCFreeBlocksLow = 8
	}
	f := &FTL{
		cfg:        cfg,
		dram:       mem,
		flash:      flash,
		world:      mem.World(),
		totalPages: geo.TotalPages(),
		reverse:    make([]uint32, geo.TotalPages()),
		valid:      make([]bool, geo.TotalPages()),
		validCount: make([]int, geo.TotalBlocks()),
	}
	for i := range f.reverse {
		f.reverse[i] = invalidRev
	}
	for b := geo.TotalBlocks() - 1; b >= 1; b-- {
		f.freeBlocks = append(f.freeBlocks, b)
	}
	f.active = 0
	f.nextPage = 0

	if cfg.FirmwareBase == 0 {
		// Keep the scratch state a safe row distance from the table so
		// ordinary firmware traffic does not itself disturb L2P rows.
		f.cfg.FirmwareBase = cfg.L2PBase + f.TableBytes() + (8 << 20)
		if f.cfg.FirmwareBase+4096 > mem.Config().Geometry.Capacity() {
			f.cfg.FirmwareBase = cfg.L2PBase + f.TableBytes()
		}
	}
	if end := f.cfg.FirmwareBase + 4096; end > mem.Config().Geometry.Capacity() {
		return nil, fmt.Errorf("ftl: table+firmware region [%#x,%#x) exceeds DRAM capacity",
			cfg.L2PBase, end)
	}
	if cfg.Cache.Enabled {
		lines := cfg.Cache.Lines
		if lines == 0 {
			lines = 256
		}
		if lines&(lines-1) != 0 {
			return nil, fmt.Errorf("ftl: cache lines %d not a power of two", lines)
		}
		f.cache = newL2PCache(lines)
	}
	f.obs = f.world.Obs
	if f.obs != nil {
		f.registerObs(f.obs)
	}
	if err := f.initTable(); err != nil {
		return nil, err
	}
	return f, nil
}

// initTable writes the unmapped pattern across the whole table region.
func (f *FTL) initTable() error {
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = 0xFF
	}
	end := f.cfg.L2PBase + f.TableBytes()
	for addr := f.cfg.L2PBase; addr < end; addr += uint64(len(buf)) {
		n := uint64(len(buf))
		if addr+n > end {
			n = end - addr
		}
		if err := f.dram.Write(addr, buf[:n]); err != nil {
			return fmt.Errorf("ftl: initializing L2P table: %w", err)
		}
	}
	return nil
}

// Config returns the FTL configuration (with defaults applied).
func (f *FTL) Config() Config { return f.cfg }

// Stats returns a copy of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// ReadCounters is the part of Stats a host read changes on a repeatable
// FTL (see Repeatable).
type ReadCounters struct {
	HostReads, L2PLookups, ReadsUnmapped, CorruptReads uint64
}

// Sub returns the counters' growth since before.
func (c ReadCounters) Sub(before ReadCounters) ReadCounters {
	return ReadCounters{
		HostReads:     c.HostReads - before.HostReads,
		L2PLookups:    c.L2PLookups - before.L2PLookups,
		ReadsUnmapped: c.ReadsUnmapped - before.ReadsUnmapped,
		CorruptReads:  c.CorruptReads - before.CorruptReads,
	}
}

// ReadCounters returns the read counters.
func (f *FTL) ReadCounters() ReadCounters {
	s := &f.stats
	return ReadCounters{s.HostReads, s.L2PLookups, s.ReadsUnmapped, s.CorruptReads}
}

// AddReads adds k times d to the read counters: the FTL's share of k
// more repetitions of a read stream whose one repetition grew them by d.
func (f *FTL) AddReads(d ReadCounters, k uint64) {
	f.stats.HostReads += k * d.HostReads
	f.stats.L2PLookups += k * d.L2PLookups
	f.stats.ReadsUnmapped += k * d.ReadsUnmapped
	f.stats.CorruptReads += k * d.CorruptReads
}

// Repeatable reports whether a host read changes nothing in the FTL but
// its ReadCounters: no L2P cache, the linear layout, no fault injector.
// Everything else a read does happens in DRAM and flash.
func (f *FTL) Repeatable() bool {
	return f.cache == nil && !f.cfg.Hashed && f.inj == nil
}

// NumLBAs returns the exported logical capacity in blocks.
func (f *FTL) NumLBAs() uint64 { return f.cfg.NumLBAs }

// BlockBytes returns the logical block size.
func (f *FTL) BlockBytes() int { return f.flash.Geometry().PageBytes }

// TableBytes returns the DRAM footprint of the mapping structure.
func (f *FTL) TableBytes() uint64 {
	if f.cfg.Hashed {
		return f.bucketCount() * bucketBytes
	}
	return f.cfg.NumLBAs * EntryBytes
}

// L2PRegion returns the DRAM region holding the mapping structure — the
// attack surface.
func (f *FTL) L2PRegion() dram.Region {
	return dram.Region{Base: f.cfg.L2PBase, Size: f.TableBytes()}
}

// EntryAddr returns the DRAM physical address of the linear L2P entry for
// lba. For the hashed layout this is only computable with the device key;
// EntryAddr models the attacker's offline knowledge and therefore returns
// an error when the layout is randomized.
func (f *FTL) EntryAddr(lba LBA) (uint64, error) {
	if uint64(lba) >= f.cfg.NumLBAs {
		return 0, fmt.Errorf("ftl: LBA %d out of range", lba)
	}
	if f.cfg.Hashed {
		return 0, errors.New("ftl: entry addresses are randomized by the hashed layout")
	}
	return f.cfg.L2PBase + uint64(lba)*EntryBytes, nil
}

// SetFaults attaches a fault injector. KindECCUncorrectable rules
// (region-scoped by DRAM physical address over the linear L2P table) force
// uncorrectable ECC errors on entry loads, modeling the paper's in-DRAM
// metadata corruption without waiting for organic bitflips. A nil injector
// is valid and disables injection.
func (f *FTL) SetFaults(inj *faults.Injector) { f.inj = inj }

// loadEntry reads lba's translation, performing the per-IO DRAM traffic
// (amplified activations plus firmware scratch touches).
func (f *FTL) loadEntry(lba LBA) (nand.PPN, error) {
	f.stats.L2PLookups++
	if f.cfg.Hashed {
		return f.hashedLoad(lba)
	}
	addr := f.cfg.L2PBase + uint64(lba)*EntryBytes
	if f.cache != nil {
		if v, ok := f.cache.get(addr); ok {
			f.stats.CacheHits++
			return decodePPN(v), nil
		}
		f.stats.CacheMisses++
	}
	if hit, _ := f.inj.Decide(faults.KindECCUncorrectable, addr); hit {
		f.stats.UncorrectedECC++
		return nand.InvalidPPN, &dram.ECCError{Addr: addr}
	}
	var raw [EntryBytes]byte
	if err := f.dram.Read(addr, raw[:]); err != nil {
		f.stats.UncorrectedECC++
		return nand.InvalidPPN, err
	}
	f.amplify(addr)
	f.touchFirmware(lba)
	if hit, _ := f.inj.Decide(faults.KindDRAMBitFlip, addr); hit {
		// A synthetic rowhammer flip: corrupt the entry in DRAM itself
		// (like a real flip it persists until the entry is rewritten)
		// and serve the corrupted translation.
		raw[injectedFlipByte] ^= 1 << injectedFlipBit
		f.stats.InjectedFlips++
		if err := f.dram.Write(addr, raw[:]); err != nil {
			f.stats.UncorrectedECC++
			return nand.InvalidPPN, err
		}
	}
	v := binary.LittleEndian.Uint32(raw[:])
	if f.cache != nil {
		f.cache.put(addr, v)
	}
	return decodePPN(v), nil
}

// storeEntry writes lba's translation with the same access side effects.
func (f *FTL) storeEntry(lba LBA, ppn nand.PPN) error {
	if f.cfg.Hashed {
		return f.hashedStore(lba, ppn)
	}
	addr := f.cfg.L2PBase + uint64(lba)*EntryBytes
	var raw [EntryBytes]byte
	binary.LittleEndian.PutUint32(raw[:], encodePPN(ppn))
	if err := f.dram.Write(addr, raw[:]); err != nil {
		f.stats.UncorrectedECC++
		return err
	}
	f.touchFirmware(lba)
	if f.cache != nil {
		f.cache.put(addr, encodePPN(ppn))
	}
	return nil
}

// amplify repeats the entry-row activation HammersPerIO-1 extra times,
// interleaving a conflicting same-bank access so each repetition is a
// genuine activation (the testbed's cache-invalidation trick).
func (f *FTL) amplify(entryAddr uint64) {
	n := f.cfg.HammersPerIO - 1
	if n <= 0 {
		return
	}
	conflict := f.conflictAddr(entryAddr)
	for i := 0; i < n; i++ {
		f.dram.Activate(conflict)
		f.dram.Activate(entryAddr)
	}
}

// conflictAddr returns an address in the same bank as addr but a distant
// row, used to force row-buffer conflicts.
func (f *FTL) conflictAddr(addr uint64) uint64 {
	m := f.dram.Mapper()
	loc := m.Map(addr)
	loc.Row ^= 1 << 9 // distant row, same bank
	loc.Col = 0
	return m.Unmap(loc)
}

// touchFirmware models the firmware's non-L2P DRAM traffic.
func (f *FTL) touchFirmware(lba LBA) {
	for i := 0; i < f.cfg.FirmwareTouchesPerIO; i++ {
		off := (uint64(lba) + uint64(i)) % 64 * 64
		f.dram.Activate(f.cfg.FirmwareBase + off)
	}
}

func decodePPN(v uint32) nand.PPN {
	if v == unmappedEntry {
		return nand.InvalidPPN
	}
	return nand.PPN(v)
}

func encodePPN(ppn nand.PPN) uint32 {
	if ppn == nand.InvalidPPN {
		return unmappedEntry
	}
	return uint32(ppn)
}

// ReadLBA reads one logical block into buf. It returns mapped=false (and a
// zero buffer) for trimmed/unwritten LBAs, which skip flash entirely — the
// fast path the paper's attacker exploits to raise its access rate.
func (f *FTL) ReadLBA(lba LBA, buf []byte) (mapped bool, err error) {
	if uint64(lba) >= f.cfg.NumLBAs {
		return false, fmt.Errorf("ftl: read of LBA %d beyond capacity %d", lba, f.cfg.NumLBAs)
	}
	if len(buf) != f.BlockBytes() {
		return false, ErrUnaligned
	}
	f.stats.HostReads++
	ppn, err := f.loadEntry(lba)
	if err != nil {
		return false, err
	}
	if ppn == nand.InvalidPPN {
		f.stats.ReadsUnmapped++
		for i := range buf {
			buf[i] = 0
		}
		return false, nil
	}
	if uint64(ppn) >= f.totalPages {
		// A bitflip pushed the translation out of range: the device
		// cannot service the read (§3.2 data corruption / bricking).
		f.stats.CorruptReads++
		return false, &CorruptMappingError{LBA: lba, PPN: ppn}
	}
	if err := f.flash.Read(ppn, buf); err != nil {
		return false, fmt.Errorf("ftl: flash read: %w", err)
	}
	return true, nil
}

// WriteLBA writes one logical block. Flash is copy-on-write: the data goes
// to a fresh page and the old page (if any) is invalidated.
func (f *FTL) WriteLBA(lba LBA, data []byte) error {
	if uint64(lba) >= f.cfg.NumLBAs {
		return fmt.Errorf("ftl: write of LBA %d beyond capacity %d", lba, f.cfg.NumLBAs)
	}
	if len(data) != f.BlockBytes() {
		return ErrUnaligned
	}
	f.stats.HostWrites++
	// Allocate before looking up the old translation: allocation may run
	// garbage collection, which can relocate this very LBA; the lookup
	// must observe the post-GC truth or a stale page would stay
	// valid-marked and later "relocations" of it would regress the
	// translation.
	ppn, err := f.allocatePage()
	if err != nil {
		return err
	}
	old, err := f.loadEntry(lba)
	if err != nil {
		return err
	}
	if err := f.flash.Program(ppn, data); err != nil {
		return fmt.Errorf("ftl: flash program: %w", err)
	}
	f.stats.FlashPrograms++
	f.markValid(ppn, lba)
	if err := f.storeEntry(lba, ppn); err != nil {
		return err
	}
	f.invalidateOwned(old, lba)
	return nil
}

// invalidateOwned retires lba's old page, but only after checking the
// reverse map (real firmware keeps the owning LBA in the page's
// out-of-band area). The guard matters under attack: a rowhammered L2P
// entry can point anywhere, and blindly invalidating its target would
// destroy an unrelated tenant's live page on the next overwrite.
func (f *FTL) invalidateOwned(old nand.PPN, lba LBA) {
	if old == nand.InvalidPPN || uint64(old) >= f.totalPages {
		return
	}
	if f.reverse[old] != uint32(lba) {
		f.stats.StaleInvalidates++
		return
	}
	f.invalidate(old)
}

// Trim drops the translation for lba (NVMe Deallocate). Subsequent reads
// skip flash.
func (f *FTL) Trim(lba LBA) error {
	if uint64(lba) >= f.cfg.NumLBAs {
		return fmt.Errorf("ftl: trim of LBA %d beyond capacity %d", lba, f.cfg.NumLBAs)
	}
	f.stats.Trims++
	old, err := f.loadEntry(lba)
	if err != nil {
		return err
	}
	f.invalidateOwned(old, lba)
	return f.storeEntry(lba, nand.InvalidPPN)
}

// PPNOf returns lba's current translation without side effects — a
// simulator-debug view, not a device operation.
func (f *FTL) PPNOf(lba LBA) nand.PPN {
	if f.cfg.Hashed {
		return f.hashedPeek(lba)
	}
	addr := f.cfg.L2PBase + uint64(lba)*EntryBytes
	var raw [EntryBytes]byte
	for i := range raw {
		raw[i] = f.peekByte(addr + uint64(i))
	}
	return decodePPN(binary.LittleEndian.Uint32(raw[:]))
}

// peekByte reads DRAM ground truth without access semantics.
func (f *FTL) peekByte(addr uint64) byte { return f.dram.Peek(addr) }

// markValid records that ppn now holds lba's data.
func (f *FTL) markValid(ppn nand.PPN, lba LBA) {
	f.reverse[ppn] = uint32(lba)
	if !f.valid[ppn] {
		f.valid[ppn] = true
		f.validCount[f.flash.Geometry().BlockOf(ppn)]++
	}
}

// invalidate marks ppn dead.
func (f *FTL) invalidate(ppn nand.PPN) {
	if f.valid[ppn] {
		f.valid[ppn] = false
		f.validCount[f.flash.Geometry().BlockOf(ppn)]--
	}
	f.reverse[ppn] = invalidRev
}
