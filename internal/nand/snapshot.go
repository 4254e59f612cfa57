package nand

import (
	"ftlhammer/internal/sim"
	"ftlhammer/internal/snapshot"
)

// snapSection is the snapshot section owned by the NAND array.
const snapSection = "nand"

// SaveTo appends the array's mutable state — page lifecycle, programmed
// page contents (in PPN order), per-block program cursors, wear and
// bad-block tables, stats — to a snapshot under construction. Each page
// is stored with its own copy of its data, shared buffer or not, and
// LoadFrom gives each its own buffer.
func (a *Array) SaveTo(w *snapshot.Writer) {
	s := w.Section(snapSection)
	states := make([]byte, len(a.slot))
	n := 0
	for i, b := range a.slot {
		if b != slotFree {
			states[i] = 1
		}
		if b >= slotBase {
			n++
		}
	}
	s.Bytes("state", states)

	keys := make([]uint64, 0, n)
	blob := make([]byte, 0, n*a.geo.PageBytes)
	for i, b := range a.slot {
		if b >= slotBase {
			keys = append(keys, uint64(i))
			blob = append(blob, a.bufs[b]...)
		}
	}
	s.U64s("data_keys", keys)
	s.Bytes("data", blob)

	next := make([]uint64, len(a.nextPage))
	for i, n := range a.nextPage {
		next[i] = uint64(n)
	}
	s.U64s("next_page", next)
	s.U32s("erase_cnt", a.eraseCnt)
	bad := make([]byte, len(a.badBlocks))
	for i, b := range a.badBlocks {
		if b {
			bad[i] = 1
		}
	}
	s.Bytes("bad_blocks", bad)
	st := a.stats
	s.U64s("stats", []uint64{
		st.Reads, st.Programs, st.Erases, st.ReadErased,
		uint64(st.BusyTime), uint64(st.WearMax), uint64(st.BadBlocks),
		st.FailedProgs, st.MediaReadFails, st.MediaProgFails,
	})
}

// LoadFrom restores the array from its section of a decoded snapshot.
// All indices and lengths are validated against the geometry first; on
// error the array may be partially overwritten and must be discarded.
func (a *Array) LoadFrom(snap *snapshot.Snapshot) error {
	s := snap.Section(snapSection)
	totalPages := a.geo.TotalPages()
	totalBlocks := a.geo.TotalBlocks()

	states := s.Bytes("state")
	keys := s.U64s("data_keys")
	blob := s.Bytes("data")
	next := s.U64s("next_page")
	erase := s.U32s("erase_cnt")
	bad := s.Bytes("bad_blocks")
	stats := s.U64s("stats")
	if s.Err() == nil {
		switch {
		case uint64(len(states)) != totalPages:
			s.Reject("state", "want %d pages, got %d", totalPages, len(states))
		case len(blob) != len(keys)*a.geo.PageBytes:
			s.Reject("data", "want %d bytes for %d pages, got %d",
				len(keys)*a.geo.PageBytes, len(keys), len(blob))
		case len(next) != totalBlocks:
			s.Reject("next_page", "want %d blocks, got %d", totalBlocks, len(next))
		case len(erase) != totalBlocks:
			s.Reject("erase_cnt", "want %d blocks, got %d", totalBlocks, len(erase))
		case len(bad) != totalBlocks:
			s.Reject("bad_blocks", "want %d blocks, got %d", totalBlocks, len(bad))
		case len(stats) != 10:
			s.Reject("stats", "want 10 counters, got %d", len(stats))
		}
	}
	if s.Err() == nil {
		for i, k := range keys {
			if k >= totalPages {
				s.Reject("data_keys", "PPN %d beyond %d pages", k, totalPages)
				break
			}
			if i > 0 && k <= keys[i-1] {
				s.Reject("data_keys", "PPN %d follows %d; keys must increase", k, keys[i-1])
				break
			}
			if states[k] == 0 {
				s.Reject("data_keys", "PPN %d has data but a free state", k)
				break
			}
		}
		for i, n := range next {
			if n > uint64(a.geo.PagesPerBlock) {
				s.Reject("next_page", "block %d cursor %d beyond %d pages/block",
					i, n, a.geo.PagesPerBlock)
				break
			}
		}
		for i, st := range states {
			if st > 1 {
				s.Reject("state", "page %d has unknown lifecycle %d", i, st)
				break
			}
		}
	}
	if err := s.Err(); err != nil {
		return err
	}

	// A programmed page without a key is one a failed program consumed.
	for i, st := range states {
		a.slot[i] = uint32(st)
	}
	// The blob aliases the decoded snapshot, which may be loaded again:
	// copy it once and give each key its own buffer within the copy.
	own := append([]byte(nil), blob...)
	pb := a.geo.PageBytes
	a.bufs = make([][]byte, slotBase, int(slotBase)+len(keys))
	a.refs = make([]uint32, slotBase, int(slotBase)+len(keys))
	a.spare = nil
	for i, k := range keys {
		a.slot[k] = uint32(len(a.bufs))
		a.bufs = append(a.bufs, own[i*pb:(i+1)*pb:(i+1)*pb])
		a.refs = append(a.refs, 1)
	}
	for i, n := range next {
		a.nextPage[i] = int(n)
	}
	copy(a.eraseCnt, erase)
	for i, b := range bad {
		a.badBlocks[i] = b == 1
	}
	a.stats = Stats{
		Reads: stats[0], Programs: stats[1], Erases: stats[2],
		ReadErased: stats[3], BusyTime: sim.Duration(stats[4]),
		WearMax: uint32(stats[5]), BadBlocks: int(stats[6]),
		FailedProgs: stats[7], MediaReadFails: stats[8], MediaProgFails: stats[9],
	}
	return nil
}
