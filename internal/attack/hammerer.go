package attack

import (
	"errors"
	"fmt"

	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
)

// Hammerer executes a declarative Pattern against one Binding. Its
// implementation, DeviceHammerer, issues ordinary reads (the §3.1
// workload).
type Hammerer interface {
	Hammer(b Binding, p Pattern) error
}

// DeviceHammerer hammers through the NVMe device: every slot becomes a
// read of an LBA whose L2P lookup activates the slot's target row —
// the §3.1 workload of strictly ordinary reads, generalized to
// non-uniform slot schedules.
type DeviceHammerer struct {
	Dev  *nvme.Device
	NS   *nvme.Namespace
	Path nvme.Path
	// buf is the read scratch buffer, allocated on first use.
	buf []byte
	// cycle is the reused read sequence of one pattern cycle (see
	// repeatCycles).
	cycle []ftl.LBA
}

// maxCycleReads bounds the read sequence of one pattern cycle that
// Hammer hands to nvme.Device.RepeatReads; longer cycles (sides whose
// lengths have a large least common multiple) run read by read.
const maxCycleReads = 1 << 14

// Hammer runs the pattern's read workload against the binding: strictly
// ordinary reads, in slot order, for Pattern.Iterations iterations.
func (h *DeviceHammerer) Hammer(b Binding, p Pattern) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if h.buf == nil {
		h.buf = make([]byte, h.Dev.BlockBytes())
	}
	slots := p.effectiveSlots()
	// Resolve each slot's LBA group up front.
	sides := make([][]ftl.LBA, len(b.Sides))
	copy(sides, b.Sides)
	needDecoy := p.NeedsDecoy()
	if needDecoy && !b.HasDecoy {
		return errors.New("attack: pattern needs a decoy row but the binding has none")
	}
	for _, s := range slots {
		if s.Aggressor == DecoyTarget {
			continue
		}
		if s.Aggressor >= len(sides) || len(sides[s.Aggressor]) == 0 {
			return fmt.Errorf("attack: pattern targets side %d but the binding has %d", s.Aggressor, len(sides))
		}
	}
	if !p.SyncDecoy && p.CacheEvictLines == 0 {
		if done, err := h.repeatCycles(b, p, slots); done {
			return err
		}
	}
	var tREFI uint64
	if p.SyncDecoy {
		dcfg := h.Dev.DRAM().Config()
		cpw := dcfg.TRR.CommandsPerWindow
		if cpw <= 0 {
			cpw = 8192
		}
		tREFI = uint64(dcfg.RefreshWindow) / uint64(cpw)
	}
	// Cache eviction partners: an LBA exactly CacheEvictLines lines of
	// entries away shares the direct-mapped set but differs in tag;
	// reading it right before the target evicts the target's cached entry.
	evict := make([]ftl.LBA, len(slots))
	if p.CacheEvictLines > 0 {
		delta := ftl.LBA(p.CacheEvictLines) * LineEntries
		for si, s := range slots {
			if s.Aggressor == DecoyTarget {
				evict[si] = h.aliasLBA(b.DecoyLBA, delta)
				continue
			}
			// Pin one LBA per side: the alias must keep hitting the
			// same cache set as the hammered entry.
			sides[s.Aggressor] = sides[s.Aggressor][:1]
			evict[si] = h.aliasLBA(sides[s.Aggressor][0], delta)
		}
	}
	clk := h.Dev.Clock()
	// iterCost tracks how long one iteration takes, for REF-boundary
	// prediction (SMASH-style synchronization: REF commands are strictly
	// periodic, so the attacker times a decoy to be the first activation
	// after each boundary, claiming the TRR sampler slot).
	var iterCost uint64
	for i := 0; i < p.Iterations; i++ {
		if p.SyncDecoy {
			now := uint64(clk.Now())
			next := (now/tREFI + 1) * tREFI
			if now+2*iterCost >= next || iterCost == 0 {
				// Sleep to the boundary, then fire the decoy so its
				// row activation lands right after the REF command.
				clk.AdvanceTo(sim.Time(next))
				if _, err := h.Dev.Read(h.NS, b.DecoyLBA, h.buf, h.Path); err != nil {
					return err
				}
			}
		}
		iterStart := uint64(clk.Now())
		for si, s := range slots {
			if !s.fires(i) {
				continue
			}
			if p.CacheEvictLines > 0 {
				// Eviction reads exist only for their cache side effect;
				// a corrupt-translation error (from an earlier flip)
				// does not matter — the lookup that errored already
				// displaced the cached line.
				_, _ = h.Dev.Read(h.NS, evict[si], h.buf, h.Path)
			}
			lba := b.DecoyLBA
			if s.Aggressor != DecoyTarget {
				group := sides[s.Aggressor]
				lba = group[i%len(group)]
			}
			if _, err := h.Dev.Read(h.NS, lba, h.buf, h.Path); err != nil {
				return err
			}
		}
		iterCost = uint64(clk.Now()) - iterStart
	}
	return nil
}

// repeatCycles runs a pattern whose slots all fire on every iteration as
// whole cycles through nvme.Device.RepeatReads. A cycle is the least
// common multiple of the side lengths in iterations, so every cycle reads
// the same LBAs in the same order as the per-iteration loop; the leftover
// Iterations mod cycle run read by read with the same i % len(group). It
// reports done=false, having issued nothing, for patterns it does not
// cover.
func (h *DeviceHammerer) repeatCycles(b Binding, p Pattern, slots []Slot) (done bool, err error) {
	cycle := 1
	for _, s := range slots {
		if s.Every > 1 {
			return false, nil
		}
		if s.Aggressor != DecoyTarget {
			n := len(b.Sides[s.Aggressor])
			cycle = cycle / gcd(cycle, n) * n
			if cycle*len(slots) > maxCycleReads {
				return false, nil
			}
		}
	}
	lbas := h.cycle[:0]
	for i := 0; i < cycle; i++ {
		for _, s := range slots {
			lba := b.DecoyLBA
			if s.Aggressor != DecoyTarget {
				group := b.Sides[s.Aggressor]
				lba = group[i%len(group)]
			}
			lbas = append(lbas, lba)
		}
	}
	h.cycle = lbas
	if err := h.Dev.RepeatReads(h.NS, lbas, h.Path, p.Iterations/cycle, h.buf); err != nil {
		return true, err
	}
	for _, lba := range lbas[:p.Iterations%cycle*len(slots)] {
		if _, err := h.Dev.Read(h.NS, lba, h.buf, h.Path); err != nil {
			return true, err
		}
	}
	return true, nil
}

// gcd returns the greatest common divisor of two positive integers.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// aliasLBA returns an attacker LBA delta entries away (wrapping within
// the namespace), used as a cache-set alias of lba.
func (h *DeviceHammerer) aliasLBA(lba, delta ftl.LBA) ftl.LBA {
	n := ftl.LBA(h.NS.NumLBAs)
	return (lba + delta) % n
}
