package attack

import (
	"errors"

	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// Event kinds emitted by the pipeline (see docs/ATTACKS.md).
const (
	// EvStage marks one pipeline stage: a = stage ordinal (0 allocate,
	// 1 arm, 2 hammer, 3 check), b = bindings in play, c = stage detail
	// (hammer: binding index; others: 0).
	EvStage = "attack.stage"
	// EvResult summarizes one pipeline run: a = flips, b = victim
	// corruptions, c = guard blacklists during the run.
	EvResult = "attack.result"
)

func init() {
	obs.RegisterEventKind(EvStage, "stage", "bindings", "detail")
	obs.RegisterEventKind(EvResult, "flips", "corrupted", "blacklists")
}

// Pipeline wires one Allocator, one Hammerer, and one Victim into the
// paper's end-to-end flow: place attacker state, arm the victim, drive
// the pattern over every binding, and measure what broke.
type Pipeline struct {
	Dev  *nvme.Device
	NS   *nvme.Namespace
	Path nvme.Path

	Alloc    Allocator
	Hammerer Hammerer
	Victim   Victim

	// Obs, when non-nil, receives stage events and counters.
	Obs *obs.Registry
}

// Result is what one Pipeline.Run measured.
type Result struct {
	// Bindings is how many bindings the allocator produced; Hammered is
	// how many the hammer stage actually drove.
	Bindings, Hammered int
	// Flips is the ground-truth DRAM flip delta across the run.
	Flips uint64
	// MitRefreshes is the in-DRAM mitigation's targeted-refresh delta
	// (TRR + PARA) — the "did the mitigation notice" half of stealth.
	MitRefreshes uint64
	// Blacklists and GuardViolations are the guard's reaction delta —
	// the "did the firmware notice" half.
	Blacklists, GuardViolations uint64
	// Victim is the final victim report.
	Victim VictimReport
}

// Stealthy reports whether the run drew no guard or mitigation
// reaction at all.
func (r Result) Stealthy() bool {
	return r.Blacklists == 0 && r.GuardViolations == 0 && r.MitRefreshes == 0
}

func (p *Pipeline) emit(kind string, a, b, c int64) {
	if p.Obs != nil {
		p.Obs.Emit(uint64(p.Dev.Clock().Now()), kind, a, b, c)
	}
}

// Run executes the full allocate → arm → hammer → check flow for one
// pattern. Patterns that need a decoy are downgraded per binding when
// the binding has none (as Campaign does).
func (p *Pipeline) Run(pat Pattern) (Result, error) {
	if p.Alloc == nil || p.Hammerer == nil || p.Victim == nil {
		return Result{}, errors.New("attack: pipeline needs an allocator, a hammerer, and a victim")
	}
	if err := pat.Validate(); err != nil {
		return Result{}, err
	}

	bindings, err := p.Alloc.Allocate(p.Dev, p.NS, p.Path, pat.Sides)
	if err != nil {
		return Result{}, err
	}
	res := Result{Bindings: len(bindings)}
	p.emit(EvStage, 0, int64(len(bindings)), 0)
	if p.Obs != nil {
		p.Obs.Counter("attack_bindings_total").Add(uint64(len(bindings)))
	}

	if err := p.Victim.Arm(bindings); err != nil {
		return res, err
	}
	p.emit(EvStage, 1, int64(len(bindings)), 0)

	mem := p.Dev.DRAM()
	st0 := mem.Stats()
	g := p.Dev.Guard()
	var gBlack, gViol uint64
	if g != nil {
		gBlack = g.Stats().Blacklists
		gViol = g.Violations(p.NS.ID)
	}

	for i, b := range bindings {
		eff := pat
		if eff.NeedsDecoy() && !b.HasDecoy {
			eff = eff.WithoutDecoys()
		}
		p.emit(EvStage, 2, int64(len(bindings)), int64(i))
		if err := p.Hammerer.Hammer(b, eff); err != nil {
			return res, err
		}
		res.Hammered++
		if p.Obs != nil {
			p.Obs.Counter("attack_iterations_total").Add(uint64(eff.Iterations))
		}
	}

	rep, err := p.Victim.Check()
	if err != nil {
		return res, err
	}
	p.emit(EvStage, 3, int64(rep.Checked), 0)
	res.Victim = rep

	st1 := mem.Stats()
	res.Flips = st1.Flips - st0.Flips
	res.MitRefreshes = (st1.TRRRefreshes + st1.PARARefreshes) -
		(st0.TRRRefreshes + st0.PARARefreshes)
	if g != nil {
		res.Blacklists = g.Stats().Blacklists - gBlack
		res.GuardViolations = g.Violations(p.NS.ID) - gViol
	}
	p.emit(EvResult, int64(res.Flips), int64(rep.Corrupted), int64(res.Blacklists))
	return res, nil
}
