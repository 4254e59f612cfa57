package attack

import (
	"fmt"
	"strconv"
	"strings"

	"ftlhammer/internal/sim"
)

// DecoyTarget is the Slot.Aggressor value that targets the binding's
// decoy row instead of an aggressor side.
const DecoyTarget = -1

// Slot is one read position inside a pattern iteration. Slots execute
// in order on every iteration where they fire; the firing schedule
// (Every/Phase) is what makes a pattern non-uniform — TRRespass-style
// many-sided shapes hit some rows every iteration and others only every
// k-th, which is exactly the structure samplers mispredict.
type Slot struct {
	// Aggressor indexes Binding.Sides, or DecoyTarget (-1) to read the
	// binding's decoy row (the same-bank far row).
	Aggressor int
	// Every makes the slot fire only on iterations where
	// (iteration+Phase) % Every == 0. Zero or one fires every
	// iteration.
	Every int
	// Phase offsets the firing schedule (meaningful with Every > 1).
	Phase int
}

// fires reports whether the slot executes on iteration i.
func (s Slot) fires(i int) bool {
	if s.Every <= 1 {
		return true
	}
	return (i+s.Phase)%s.Every == 0
}

// String renders the slot compactly: "2", "2/3" (every 3rd iteration),
// "2/3+1" (every 3rd, phase 1), "d" for the decoy target.
func (s Slot) String() string {
	var b strings.Builder
	if s.Aggressor == DecoyTarget {
		b.WriteByte('d')
	} else {
		fmt.Fprintf(&b, "%d", s.Aggressor)
	}
	if s.Every > 1 {
		fmt.Fprintf(&b, "/%d", s.Every)
		if s.Phase != 0 {
			fmt.Fprintf(&b, "+%d", s.Phase)
		}
	}
	return b.String()
}

// Pattern declares a hammering shape: which rows are read, in what
// order, how often, and whether decoy reads are synchronized to refresh
// boundaries. It is one declarative value that the fuzzer can mutate
// dimension by dimension.
type Pattern struct {
	// Spec is the parseable source string ("double", "fuzzed:7"), set
	// by ParsePattern and the fuzzed-pattern generator. Informational:
	// String falls back to a structural rendering when empty.
	Spec string
	// Sides is how many aggressor sides the binding must provide
	// (classic double-sided: 2; many-sided: more, with the extra sides
	// bound to same-bank far rows that soak the TRR sampler).
	Sides int
	// Iterations is the number of pattern iterations to run. Zero lets
	// a caller-side budget fill it in (Template and Campaign do).
	Iterations int
	// Slots is the per-iteration read schedule. Nil defaults to one
	// slot per side, in side order — the classic uniform pattern.
	Slots []Slot
	// SyncDecoy fires a decoy read timed to land right after each
	// refresh-command boundary (SMASH-style synchronization), claiming
	// the TRR sampler slot before the aggressors activate. Requires a
	// binding with a decoy row.
	SyncDecoy bool
	// CacheEvictLines, when non-zero, interleaves reads whose L2P
	// entries alias each target's set in a direct-mapped FTL cache of
	// that many 64-byte lines, so every hammer read reaches DRAM.
	CacheEvictLines int
}

// DoublePattern is the classic uniform double-sided hammer.
func DoublePattern() Pattern {
	return Pattern{Spec: "double", Sides: 2}
}

// SinglePattern reads one aggressor alternated with the binding's far
// (decoy) row as the row-conflict partner.
func SinglePattern() Pattern {
	return Pattern{
		Spec:  "single",
		Sides: 1,
		Slots: []Slot{{Aggressor: 0}, {Aggressor: DecoyTarget}},
	}
}

// OneLocationPattern reads a single aggressor with no conflict partner
// (effective only against closed-row policies).
func OneLocationPattern() Pattern {
	return Pattern{Spec: "one-location", Sides: 1, Slots: []Slot{{Aggressor: 0}}}
}

// ManyPattern hammers n aggressor sides per iteration (n >= 3): the
// first two adjacent to the victim, the rest far rows in the same bank
// that soak sampler slots (TRRespass-style).
func ManyPattern(n int) Pattern {
	return Pattern{Spec: fmt.Sprintf("many:%d", n), Sides: n}
}

// fuzzSalt decorrelates fuzzed-pattern draws from other users of the
// same seed.
const fuzzSalt = 0xF0225A17

// FuzzedPattern derives a pattern deterministically from a seed: the
// same seed always yields the same shape, which is what lets a winning
// "fuzzed:<seed>" spec be shared as a reproducible attack.
func FuzzedPattern(seed uint64) Pattern {
	p := GeneratePattern(sim.NewRNG(seed ^ fuzzSalt))
	p.Spec = fmt.Sprintf("fuzzed:%d", seed)
	return p
}

// GeneratePattern draws a random pattern from the rng stream. Every
// dimension the fuzzer mutates is reachable: sidedness, slot schedule,
// decoy slots, and REF synchronization.
func GeneratePattern(rng *sim.RNG) Pattern {
	p := Pattern{Sides: 2}
	if rng.Intn(4) == 0 {
		p.Sides = 2 + rng.Intn(3) // occasionally many-sided (3..4)
	}
	for s := 0; s < p.Sides; s++ {
		slot := Slot{Aggressor: s}
		if s >= 2 {
			// Extra sides fire sparsely: their job is soaking sampler
			// slots, not disturbing the victim.
			slot.Every = 1 + rng.Intn(3)
			slot.Phase = rng.Intn(slot.Every)
		}
		p.Slots = append(p.Slots, slot)
	}
	if rng.Intn(3) == 0 {
		every := 1 + rng.Intn(4)
		p.Slots = append(p.Slots, Slot{
			Aggressor: DecoyTarget, Every: every, Phase: rng.Intn(every),
		})
	}
	p.SyncDecoy = rng.Intn(2) == 0
	rng.Shuffle(len(p.Slots), func(i, j int) {
		p.Slots[i], p.Slots[j] = p.Slots[j], p.Slots[i]
	})
	return p
}

// Mutate returns a copy with one randomly chosen dimension changed —
// the fuzzer's neighborhood move. Deterministic under the rng stream.
func (p Pattern) Mutate(rng *sim.RNG) Pattern {
	q := p
	q.Spec = "" // a mutant is no longer its parent's spec
	q.Slots = append([]Slot(nil), p.Slots...)
	if len(q.Slots) == 0 {
		for s := 0; s < q.Sides; s++ {
			q.Slots = append(q.Slots, Slot{Aggressor: s})
		}
	}
	switch rng.Intn(6) {
	case 0: // toggle REF synchronization
		q.SyncDecoy = !q.SyncDecoy
	case 1: // add or drop a decoy slot
		di := -1
		for i, s := range q.Slots {
			if s.Aggressor == DecoyTarget {
				di = i
				break
			}
		}
		if di >= 0 {
			q.Slots = append(q.Slots[:di], q.Slots[di+1:]...)
		} else {
			every := 1 + rng.Intn(4)
			q.Slots = append(q.Slots, Slot{
				Aggressor: DecoyTarget, Every: every, Phase: rng.Intn(every),
			})
		}
	case 2: // retune one slot's firing schedule
		i := rng.Intn(len(q.Slots))
		q.Slots[i].Every = 1 + rng.Intn(4)
		q.Slots[i].Phase = rng.Intn(q.Slots[i].Every)
	case 3: // reorder two slots
		if len(q.Slots) >= 2 {
			i, j := rng.Intn(len(q.Slots)), rng.Intn(len(q.Slots))
			q.Slots[i], q.Slots[j] = q.Slots[j], q.Slots[i]
		}
	case 4: // grow sidedness (bounded)
		if q.Sides < 4 {
			q.Sides++
			every := 1 + rng.Intn(3)
			q.Slots = append(q.Slots, Slot{
				Aggressor: q.Sides - 1, Every: every, Phase: rng.Intn(every),
			})
		} else {
			q.SyncDecoy = !q.SyncDecoy
		}
	default: // shrink back toward the adjacent pair
		if q.Sides > 2 {
			q.Sides--
			kept := q.Slots[:0]
			for _, s := range q.Slots {
				if s.Aggressor < q.Sides {
					kept = append(kept, s)
				}
			}
			q.Slots = kept
		} else {
			q.SyncDecoy = !q.SyncDecoy
		}
	}
	return q
}

// ParsePattern reads a pattern spec string, mirroring the
// dram.ParseMitigation style: "single", "double", "one-location",
// "many:<n>" (n >= 3 sides) or "fuzzed:<seed>" (deterministic draw
// from the seed).
func ParsePattern(spec string) (Pattern, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	switch name {
	case "", "double":
		if hasArg {
			return Pattern{}, fmt.Errorf("attack: pattern %q takes no argument", name)
		}
		return DoublePattern(), nil
	case "single":
		if hasArg {
			return Pattern{}, fmt.Errorf("attack: pattern %q takes no argument", name)
		}
		return SinglePattern(), nil
	case "one-location", "onelocation":
		if hasArg {
			return Pattern{}, fmt.Errorf("attack: pattern %q takes no argument", name)
		}
		return OneLocationPattern(), nil
	case "many":
		if !hasArg {
			return Pattern{}, fmt.Errorf("attack: pattern many needs a side count (many:<n>)")
		}
		n, err := strconv.Atoi(arg)
		if err != nil || n < 3 {
			return Pattern{}, fmt.Errorf("attack: bad many-sided count %q (want >= 3)", arg)
		}
		return ManyPattern(n), nil
	case "fuzzed":
		if !hasArg {
			return Pattern{}, fmt.Errorf("attack: pattern fuzzed needs a seed (fuzzed:<seed>)")
		}
		seed, err := strconv.ParseUint(arg, 0, 64)
		if err != nil {
			return Pattern{}, fmt.Errorf("attack: bad fuzzed seed %q", arg)
		}
		return FuzzedPattern(seed), nil
	default:
		return Pattern{}, fmt.Errorf("attack: unknown pattern %q (want single|double|one-location|many:<n>|fuzzed:<seed>)", spec)
	}
}

// String renders the pattern: the spec it parsed from when known,
// otherwise a structural form like "pattern(sides=2 sync slots=[0 1 d/2])".
func (p Pattern) String() string {
	if p.Spec != "" {
		return p.Spec
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pattern(sides=%d", p.Sides)
	if p.SyncDecoy {
		b.WriteString(" sync")
	}
	if len(p.Slots) > 0 {
		b.WriteString(" slots=[")
		for i, s := range p.Slots {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(s.String())
		}
		b.WriteByte(']')
	}
	if p.CacheEvictLines > 0 {
		fmt.Fprintf(&b, " evict=%d", p.CacheEvictLines)
	}
	b.WriteByte(')')
	return b.String()
}

// effectiveSlots resolves the slot schedule, defaulting to one slot per
// side in side order.
func (p Pattern) effectiveSlots() []Slot {
	if len(p.Slots) > 0 {
		return p.Slots
	}
	slots := make([]Slot, p.Sides)
	for i := range slots {
		slots[i] = Slot{Aggressor: i}
	}
	return slots
}

// NeedsDecoy reports whether executing the pattern requires the binding
// to carry a decoy row (a decoy slot or REF-synchronized decoys).
func (p Pattern) NeedsDecoy() bool {
	if p.SyncDecoy {
		return true
	}
	for _, s := range p.effectiveSlots() {
		if s.Aggressor == DecoyTarget {
			return true
		}
	}
	return false
}

// WithoutDecoys strips decoy-dependent parts (decoy slots and REF
// synchronization) so the pattern can run against a binding that has no
// decoy row — the graceful degradation campaigns apply per plan.
func (p Pattern) WithoutDecoys() Pattern {
	if !p.NeedsDecoy() {
		return p
	}
	q := p
	q.Spec = ""
	q.SyncDecoy = false
	if len(p.Slots) > 0 {
		q.Slots = nil
		for _, s := range p.Slots {
			if s.Aggressor != DecoyTarget {
				q.Slots = append(q.Slots, s)
			}
		}
	}
	return q
}

// ClampSides adapts the pattern to a binding that provides only n
// aggressor sides: slots targeting missing sides are dropped and Sides
// is lowered — the graceful degradation campaigns apply when a bank ran
// out of far rows to extend a binding with, so a many-sided shape falls
// back toward the adjacent pair instead of failing the cycle.
func (p Pattern) ClampSides(n int) Pattern {
	if n >= p.Sides {
		return p
	}
	q := p
	q.Spec = ""
	q.Sides = n
	q.Slots = nil
	for _, s := range p.effectiveSlots() {
		if s.Aggressor == DecoyTarget || s.Aggressor < n {
			q.Slots = append(q.Slots, s)
		}
	}
	return q
}

// Validate rejects patterns no binding could execute.
func (p Pattern) Validate() error {
	if p.Iterations <= 0 {
		return fmt.Errorf("attack: Pattern.Iterations must be positive")
	}
	if p.Sides < 1 {
		return fmt.Errorf("attack: Pattern.Sides must be >= 1")
	}
	for _, s := range p.effectiveSlots() {
		if s.Aggressor != DecoyTarget && (s.Aggressor < 0 || s.Aggressor >= p.Sides) {
			return fmt.Errorf("attack: slot targets side %d of %d", s.Aggressor, p.Sides)
		}
		if s.Every < 0 || s.Phase < 0 {
			return fmt.Errorf("attack: slot schedule must be non-negative")
		}
	}
	if p.CacheEvictLines < 0 {
		return fmt.Errorf("attack: CacheEvictLines must be >= 0")
	}
	return nil
}
