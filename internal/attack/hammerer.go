package attack

import (
	"errors"
	"fmt"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/guard"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
)

// Hammerer executes a declarative Pattern against one Binding. The
// device-path implementation issues ordinary reads (the §3.1 workload);
// the module-level implementation drives a DRAM module directly for
// experiments that bypass the device.
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
	// Buf is the read scratch buffer; allocated on first use when nil.
	Buf []byte
}

// Hammer runs the pattern's read workload against the binding: strictly
// ordinary reads, in slot order, for Pattern.Iterations iterations.
func (h *DeviceHammerer) Hammer(b Binding, p Pattern) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if h.Buf == nil {
		h.Buf = make([]byte, h.Dev.BlockBytes())
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
	var tREFI uint64
	if p.SyncDecoy {
		dcfg := h.Dev.DRAM().Config()
		cpw := dcfg.TRR.CommandsPerWindow
		if cpw <= 0 {
			cpw = 8192
		}
		window := dcfg.RefreshWindow
		if window == 0 {
			window = 64 * sim.Millisecond
		}
		tREFI = uint64(window) / uint64(cpw)
	}
	// Cache eviction partners: an LBA exactly CacheEvictLines*16 entries
	// away shares the direct-mapped set but differs in tag; reading it
	// right before the target evicts the target's cached entry.
	evict := make([]ftl.LBA, len(slots))
	if p.CacheEvictLines > 0 {
		delta := ftl.LBA(p.CacheEvictLines) * 16 // entries per line
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
				if _, err := h.Dev.Read(h.NS, b.DecoyLBA, h.Buf, h.Path); err != nil {
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
				_, _ = h.Dev.Read(h.NS, evict[si], h.Buf, h.Path)
			}
			lba := b.DecoyLBA
			if s.Aggressor != DecoyTarget {
				group := sides[s.Aggressor]
				lba = group[i%len(group)]
			}
			if _, err := h.Dev.Read(h.NS, lba, h.Buf, h.Path); err != nil {
				return err
			}
		}
		iterCost = uint64(clk.Now()) - iterStart
	}
	return nil
}

// aliasLBA returns an attacker LBA delta entries away (wrapping within
// the namespace), used as a cache-set alias of lba.
func (h *DeviceHammerer) aliasLBA(lba, delta ftl.LBA) ftl.LBA {
	n := ftl.LBA(h.NS.NumLBAs)
	return (lba + delta) % n
}

// ModuleHammerer drives aggressor activations directly against a DRAM
// module — the experiment-local path (rate-threshold bisection) that
// used to bypass the guard's activation accounting entirely. It reports
// every genuine activation to the attached guard with the same
// bank/row key nvme.Device.observeGuard uses, so experiment-local and
// device-path hammering count activations identically.
type ModuleHammerer struct {
	Mod *dram.Module
	Clk *sim.Clock
	// Guard, when non-nil, receives every activation under GuardNSID,
	// keyed by the activated flat bank and row — the exact accounting
	// the device performs for command-driven lookups.
	Guard   *guard.Guard
	GuardNS int
}

// activate issues one row activation and mirrors the device's guard
// accounting: only genuine activations count (row-buffer hits cannot
// hammer), keyed by flat bank << 32 | row.
func (h *ModuleHammerer) activate(addr uint64) {
	if h.Guard == nil {
		h.Mod.Activate(addr)
		return
	}
	before := h.Mod.Stats().Activations
	h.Mod.Activate(addr)
	if acts := h.Mod.Stats().Activations - before; acts > 0 {
		loc := h.Mod.Mapper().Map(addr)
		key := uint64(h.Mod.Config().Geometry.FlatBank(loc))<<32 | uint64(loc.Row)
		now := h.Clk.Now()
		for i := uint64(0); i < acts; i++ {
			h.Guard.Observe(h.GuardNS, key, now)
		}
	}
}

// HammerRows drives a double-sided hammer against victimRow's
// neighbours at the given total access rate for the given virtual
// duration, reporting whether any bit flipped. This is the shared
// executor behind experiments' rate-threshold probes; its activation
// and clock sequence is unchanged from the pre-refactor loop, so
// experiment outputs stay byte-identical.
func (h *ModuleHammerer) HammerRows(victimRow int, rate float64, dur sim.Duration) bool {
	before := h.Mod.Stats().Flips
	iv := sim.Interval(rate)
	a := h.Mod.Mapper().Unmap(dram.Location{Bank: 0, Row: victimRow - 1})
	b := h.Mod.Mapper().Unmap(dram.Location{Bank: 0, Row: victimRow + 1})
	end := h.Clk.Now().Add(dur)
	for i := 0; h.Clk.Now() < end; i++ {
		h.activate(a)
		h.Clk.Advance(iv)
		h.activate(b)
		h.Clk.Advance(iv)
		if i&511 == 0 && h.Mod.Stats().Flips > before {
			return true
		}
	}
	return h.Mod.Stats().Flips > before
}

// Hammer implements Hammerer at module level: per iteration the firing
// slots each activate their target row once (extra sides map to rows
// offset away from the victim, decoys to a distant row in bank 0),
// advancing the clock by the module's activation interval. It exists so
// pattern-shape experiments can run without a device; the device path
// is DeviceHammerer.
func (h *ModuleHammerer) Hammer(b Binding, p Pattern) error {
	if err := p.Validate(); err != nil {
		return err
	}
	slots := p.effectiveSlots()
	rows := []int{b.Triple.VictimRow - 1, b.Triple.VictimRow + 1}
	geoRows := h.Mod.Config().Geometry.RowsPerBank
	for len(rows) < p.Sides {
		// Deterministic far rows, clear of the victim and aggressors.
		rows = append(rows, (b.Triple.VictimRow+64*(len(rows)-1))%geoRows)
	}
	decoyRow := (b.Triple.VictimRow + geoRows/2) % geoRows
	iv := sim.Interval(1e7)
	for i := 0; i < p.Iterations; i++ {
		for _, s := range slots {
			if !s.fires(i) {
				continue
			}
			row := decoyRow
			if s.Aggressor != DecoyTarget {
				if s.Aggressor >= len(rows) {
					return fmt.Errorf("attack: pattern targets side %d but the binding has %d", s.Aggressor, len(rows))
				}
				row = rows[s.Aggressor]
			}
			h.activate(h.Mod.Mapper().Unmap(dram.Location{
				Channel: b.Triple.Channel, DIMM: b.Triple.DIMM,
				Rank: b.Triple.Rank, Bank: b.Triple.Bank, Row: row,
			}))
			h.Clk.Advance(iv)
		}
	}
	return nil
}
