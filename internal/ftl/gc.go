package ftl

import (
	"errors"
	"fmt"

	"ftlhammer/internal/nand"
)

// ErrDeviceFull reports that garbage collection could not reclaim space.
var ErrDeviceFull = errors.New("ftl: no reclaimable space (device full)")

// allocatePage returns the next write-pointer page, opening a fresh block
// and running garbage collection as needed.
func (f *FTL) allocatePage() (nand.PPN, error) {
	geo := f.flash.Geometry()
	if f.nextPage >= geo.PagesPerBlock {
		if err := f.openNewBlock(); err != nil {
			return nand.InvalidPPN, err
		}
	}
	ppn := geo.FirstPPN(f.active) + nand.PPN(f.nextPage)
	f.nextPage++
	return ppn, nil
}

// openNewBlock advances the write pointer to a free block, garbage
// collecting first when the pool is low. GC relocation itself allocates
// pages; the inGC guard keeps that from recursing.
func (f *FTL) openNewBlock() error {
	if !f.inGC && len(f.freeBlocks) <= f.cfg.GCFreeBlocksLow {
		f.inGC = true
		err := f.collect()
		f.inGC = false
		if err != nil && len(f.freeBlocks) == 0 {
			return err
		}
	}
	// Pop the next free block, retiring any that wore out.
	for len(f.freeBlocks) > 0 {
		b := f.freeBlocks[len(f.freeBlocks)-1]
		f.freeBlocks = f.freeBlocks[:len(f.freeBlocks)-1]
		if f.flash.IsBad(b) {
			continue
		}
		f.active = b
		f.nextPage = 0
		return nil
	}
	return ErrDeviceFull
}

// collect reclaims blocks greedily (fewest live pages first), relocating
// live data through the write pointer, until the free pool has headroom
// above the low watermark. Reclaiming until headroom exists — instead of
// one block per invocation — is what prevents the classic death spiral
// where a mostly-live victim consumes the last free block mid-relocation.
func (f *FTL) collect() error {
	geo := f.flash.Geometry()
	target := f.cfg.GCFreeBlocksLow + 2
	reclaimed := false
	for iter := 0; len(f.freeBlocks) < target; iter++ {
		if iter > 4*geo.TotalBlocks() {
			return fmt.Errorf("ftl: gc not converging after %d iterations", iter)
		}
		victim := -1
		best := geo.PagesPerBlock + 1
		for b := 0; b < geo.TotalBlocks(); b++ {
			if b == f.active || f.flash.IsBad(b) || f.isFree(b) {
				continue
			}
			if f.validCount[b] < best {
				best = f.validCount[b]
				victim = b
			}
		}
		if victim < 0 || best >= geo.PagesPerBlock {
			// Only fully-live blocks remain: moving them frees nothing.
			if reclaimed {
				return nil
			}
			return ErrDeviceFull
		}
		f.stats.GCRuns++
		movedBefore := f.stats.GCPagesMoved
		first := geo.FirstPPN(victim)
		for i := 0; i < geo.PagesPerBlock; i++ {
			ppn := first + nand.PPN(i)
			if !f.valid[ppn] {
				continue
			}
			lba := f.reverse[ppn]
			if lba == invalidRev {
				continue
			}
			if err := f.relocate(LBA(lba), ppn); err != nil {
				return err
			}
			f.stats.GCPagesMoved++
		}
		if err := f.flash.EraseBlock(victim); err != nil {
			return fmt.Errorf("ftl: gc erase: %w", err)
		}
		f.freeBlocks = append(f.freeBlocks, victim)
		reclaimed = true
		f.obs.Emit(uint64(f.world.Now()), EvGC,
			int64(f.stats.GCPagesMoved-movedBefore), int64(victim), int64(len(f.freeBlocks)))
	}
	return nil
}

// relocate moves one live page to the write pointer by copyback, so its
// data never reaches the host, and updates its translation (a DRAM
// write: GC also touches the table). The read is decided before the
// allocation, so a failed read leaves the write pointer where it was.
func (f *FTL) relocate(lba LBA, old nand.PPN) error {
	if err := f.flash.Sense(old); err != nil {
		return fmt.Errorf("ftl: gc read: %w", err)
	}
	ppn, err := f.allocatePage()
	if err != nil {
		return err
	}
	if err := f.flash.CopyProgram(ppn, old); err != nil {
		return fmt.Errorf("ftl: gc program: %w", err)
	}
	f.stats.FlashPrograms++
	f.invalidate(old)
	f.markValid(ppn, lba)
	return f.storeEntry(lba, ppn)
}

// isFree reports whether the block is in the free pool.
func (f *FTL) isFree(b int) bool {
	for _, fb := range f.freeBlocks {
		if fb == b {
			return true
		}
	}
	return false
}

// WriteAmplification returns total flash programs divided by host writes.
func (f *FTL) WriteAmplification() float64 {
	if f.stats.HostWrites == 0 {
		return 0
	}
	return float64(f.stats.FlashPrograms) / float64(f.stats.HostWrites)
}
