package ftl

import (
	"sort"

	"ftlhammer/internal/snapshot"
)

// snapSection is the snapshot section owned by the FTL.
//
// Note the L2P table itself lives in device DRAM and is captured by the
// dram section; this section carries the FTL's own mutable state (reverse
// map, validity, allocator, cache, stats).
const snapSection = "ftl"

// SaveTo appends the FTL's mutable state to a snapshot under
// construction. inGC is always false between commands, so it is not
// stored.
func (f *FTL) SaveTo(w *snapshot.Writer) {
	s := w.Section(snapSection)
	st := f.stats
	s.U64s("stats", []uint64{
		st.HostReads, st.HostWrites, st.Trims, st.ReadsUnmapped,
		st.GCRuns, st.GCPagesMoved, st.FlashPrograms, st.CorruptReads,
		st.UncorrectedECC, st.CacheHits, st.CacheMisses,
		st.StaleInvalidates, st.L2PLookups,
	})
	rev := make([]uint64, len(f.reverse))
	for i, l := range f.reverse {
		rev[i] = uint64(l)
		if l == invalidRev {
			rev[i] = uint64(invalidLBA)
		}
	}
	s.U64s("reverse", rev)
	valid := make([]byte, len(f.valid))
	for i, v := range f.valid {
		if v {
			valid[i] = 1
		}
	}
	s.Bytes("valid", valid)
	vc := make([]uint64, len(f.validCount))
	for i, n := range f.validCount {
		vc[i] = uint64(n)
	}
	s.U64s("valid_count", vc)
	free := make([]uint64, len(f.freeBlocks))
	for i, b := range f.freeBlocks {
		free[i] = uint64(b)
	}
	s.U64s("free_blocks", free)
	s.U64("active", uint64(f.active))
	s.U64("next_page", uint64(f.nextPage))
	if f.cache != nil {
		s.Bool("cache", true)
		s.U64s("cache_tags", f.cache.tags)
		keys := make([]uint64, 0, len(f.cache.vals))
		for k := range f.cache.vals {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		vals := make([]uint32, len(keys))
		for i, k := range keys {
			vals[i] = f.cache.vals[k]
		}
		s.U64s("cache_keys", keys)
		s.U32s("cache_vals", vals)
	} else {
		s.Bool("cache", false)
	}
}

// LoadFrom restores the FTL from its section of a decoded snapshot. The
// cache layout must match the FTL's configuration; all lengths and
// indices are validated first. On error the FTL may be partially
// overwritten and must be discarded.
func (f *FTL) LoadFrom(snap *snapshot.Snapshot) error {
	s := snap.Section(snapSection)
	totalBlocks := f.flash.Geometry().TotalBlocks()
	pagesPerBlock := f.flash.Geometry().PagesPerBlock

	stats := s.U64s("stats")
	rev := s.U64s("reverse")
	valid := s.Bytes("valid")
	vc := s.U64s("valid_count")
	free := s.U64s("free_blocks")
	active := s.U64("active")
	nextPage := s.U64("next_page")
	hasCache := s.Bool("cache")
	if s.Err() == nil {
		switch {
		case len(stats) != 13:
			s.Reject("stats", "want 13 counters, got %d", len(stats))
		case uint64(len(rev)) != f.totalPages:
			s.Reject("reverse", "want %d pages, got %d", f.totalPages, len(rev))
		case !ownersInRange(rev, f.cfg.NumLBAs):
			s.Reject("reverse", "owner LBA out of range (%d LBAs)", f.cfg.NumLBAs)
		case uint64(len(valid)) != f.totalPages:
			s.Reject("valid", "want %d pages, got %d", f.totalPages, len(valid))
		case len(vc) != totalBlocks:
			s.Reject("valid_count", "want %d blocks, got %d", totalBlocks, len(vc))
		case len(free) > totalBlocks:
			s.Reject("free_blocks", "%d free blocks but device has %d", len(free), totalBlocks)
		case active >= uint64(totalBlocks):
			s.Reject("active", "block %d beyond %d", active, totalBlocks)
		case nextPage > uint64(pagesPerBlock):
			s.Reject("next_page", "cursor %d beyond %d pages/block", nextPage, pagesPerBlock)
		case hasCache != (f.cache != nil):
			s.Reject("cache", "snapshot cache presence %v but device configured %v",
				hasCache, f.cache != nil)
		}
	}
	if s.Err() == nil {
		for _, b := range free {
			if b >= uint64(totalBlocks) {
				s.Reject("free_blocks", "block %d beyond %d", b, totalBlocks)
				break
			}
		}
	}
	var tags []uint64
	var ckeys []uint64
	var cvals []uint32
	if hasCache && s.Err() == nil {
		tags = s.U64s("cache_tags")
		ckeys = s.U64s("cache_keys")
		cvals = s.U32s("cache_vals")
		if s.Err() == nil {
			switch {
			case uint64(len(tags)) != f.cache.lines:
				s.Reject("cache_tags", "want %d lines, got %d", f.cache.lines, len(tags))
			case len(ckeys) != len(cvals):
				s.Reject("cache_keys", "cache column lengths disagree")
			}
		}
	}
	if err := s.Err(); err != nil {
		return err
	}

	f.stats = Stats{
		HostReads: stats[0], HostWrites: stats[1], Trims: stats[2],
		ReadsUnmapped: stats[3], GCRuns: stats[4], GCPagesMoved: stats[5],
		FlashPrograms: stats[6], CorruptReads: stats[7],
		UncorrectedECC: stats[8], CacheHits: stats[9], CacheMisses: stats[10],
		StaleInvalidates: stats[11], L2PLookups: stats[12],
	}
	for i, l := range rev {
		f.reverse[i] = invalidRev
		if LBA(l) != invalidLBA {
			f.reverse[i] = uint32(l)
		}
	}
	for i, v := range valid {
		f.valid[i] = v == 1
	}
	for i, n := range vc {
		f.validCount[i] = int(n)
	}
	f.freeBlocks = f.freeBlocks[:0]
	for _, b := range free {
		f.freeBlocks = append(f.freeBlocks, int(b))
	}
	f.active = int(active)
	f.nextPage = int(nextPage)
	f.inGC = false
	if f.cache != nil {
		copy(f.cache.tags, tags)
		f.cache.vals = make(map[uint64]uint32, len(ckeys))
		for i, k := range ckeys {
			f.cache.vals[k] = cvals[i]
		}
	}
	return nil
}

// ownersInRange reports whether every reverse-map entry is an LBA below
// numLBAs or the invalid marker: the only values the FTL ever stores.
func ownersInRange(rev []uint64, numLBAs uint64) bool {
	for _, l := range rev {
		if l >= numLBAs && LBA(l) != invalidLBA {
			return false
		}
	}
	return true
}
