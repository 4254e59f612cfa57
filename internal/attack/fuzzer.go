package attack

import (
	"fmt"
	"io"
	"sort"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/guard"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// Event kinds emitted by the fuzzer (see docs/ATTACKS.md).
const (
	// EvFuzzGeneration summarizes one fuzzer generation: a = generation
	// ordinal, b = the generation's best stealthy flip count, c =
	// candidates evaluated so far.
	EvFuzzGeneration = "fuzz.generation"
	// EvFuzzWinner reports the final best candidate: a = flips, b =
	// guard events it drew (blacklists + violations), c = the generation
	// that produced it.
	EvFuzzWinner = "fuzz.winner"
)

func init() {
	obs.RegisterEventKind(EvFuzzGeneration, "generation", "best_stealth_flips", "evaluated")
	obs.RegisterEventKind(EvFuzzWinner, "flips", "guard_events", "generation")
}

// FuzzProfile is the DRAM fault model of the standard fuzz target: soft
// enough (HCfirst 4000) that a short, guard-budgeted hammer burst can
// flip bits, so the "flips while the guard stays silent" fitness
// landscape is physically non-empty and searches stay cheap.
func FuzzProfile() dram.Profile {
	return dram.Profile{
		Name:            "fuzz target DDR (soft)",
		HCfirst:         4000,
		ThresholdSigma:  0.1,
		WeakCellsPerRow: 2.0,
	}
}

// TargetSpec pins the environment one pattern evaluation runs in. Every
// evaluation builds a fresh device from the spec under the same seed,
// so fitness is a pure function of the pattern.
type TargetSpec struct {
	// Seed fixes the device world (weak-cell layout, mitigation RNG).
	Seed uint64
	// Mitigation is the in-DRAM countermeasure, in dram.ParseMitigation
	// syntax (default "trr:1" — blocks the plain double-sided baseline
	// while leaving a synchronization bypass to discover).
	Mitigation string
	// NoGuard runs without the firmware Bloom guard, which is otherwise
	// attached with guard.DefaultConfig().
	NoGuard bool
	// Amplify is the firmware hammers-per-IO knob (default 5).
	Amplify int
	// Budget is the pattern iteration count per evaluation. The default
	// (400) is chosen against the defaults above: enough combined
	// activations to cross FuzzProfile's HCfirst within one refresh
	// window when the mitigation is bypassed, while each aggressor row
	// stays below the guard's default per-window threshold — so the
	// plain double-sided baseline is blocked silently and stealthy
	// winning patterns exist.
	Budget int
	// MaxBindings bounds how many bindings each evaluation hammers
	// (default 2).
	MaxBindings int
}

// withDefaults normalizes the zero value to the standard fuzz target.
func (t TargetSpec) withDefaults() TargetSpec {
	if t.Mitigation == "" {
		t.Mitigation = "trr:1"
	}
	if t.Amplify == 0 {
		t.Amplify = 5
	}
	if t.Budget == 0 {
		t.Budget = 400
	}
	if t.MaxBindings == 0 {
		t.MaxBindings = 2
	}
	return t
}

// Build assembles the target device: single tenant, XorBank-only
// mapping (own-partition triples must exist), FuzzProfile DRAM with the
// spec's mitigation, and the firmware guard unless disabled.
func (t TargetSpec) Build(reg *obs.Registry) (*nvme.Device, error) {
	t = t.withDefaults()
	mc, err := dram.ParseMitigation(t.Mitigation)
	if err != nil {
		return nil, err
	}
	dcfg := dram.Config{
		Geometry: dram.SSDGeometry(),
		Profile:  FuzzProfile().WithMitigation(mc),
		Mapping:  dram.MapperConfig{XorBank: true},
	}
	geom := nand.Geometry{
		Channels:      4,
		DiesPerChan:   2,
		PlanesPerDie:  2,
		BlocksPerPlan: 32,
		PagesPerBlock: 256,
		PageBytes:     4096,
	}
	var gc *guard.Config
	if !t.NoGuard {
		def := guard.DefaultConfig()
		gc = &def
	}
	sp := fleet.DeviceSpec{
		Tenants: 1,
		Amplify: t.Amplify,
		DRAM:    &dcfg,
		Flash:   &geom,
		Guard:   gc,
	}
	bd, err := sp.Build(t.Seed, reg)
	if err != nil {
		return nil, err
	}
	return bd.Device, nil
}

// Fitness is what one evaluation measured: attack effect versus defense
// reaction. The fuzzer maximizes flips drawn while the guard stays
// silent; the in-DRAM mitigation's routine refreshes are a tiebreaker
// (fewer means the pattern stressed the sampler less), not a veto —
// TRR refreshes fire on benign traffic too.
type Fitness struct {
	// Flips is the ground-truth DRAM flip count the pattern induced.
	Flips uint64
	// Remapped and Corrupted are the victim-visible consequences
	// (translation changes, failed canary reads).
	Remapped, Corrupted int
	// Blacklists and GuardViolations are the guard's reaction.
	Blacklists, GuardViolations uint64
	// MitRefreshes is the mitigation's targeted-refresh count.
	MitRefreshes uint64
}

// GuardSilent reports whether the firmware guard never reacted.
func (f Fitness) GuardSilent() bool {
	return f.Blacklists == 0 && f.GuardViolations == 0
}

// StealthFlips is the fuzzer's primary objective: flips that drew no
// guard reaction.
func (f Fitness) StealthFlips() uint64 {
	if f.GuardSilent() {
		return f.Flips
	}
	return 0
}

// Better is the fitness ordering: stealthy flips, then raw flips, then
// fewer guard events, then fewer mitigation refreshes.
func (f Fitness) Better(g Fitness) bool {
	if a, b := f.StealthFlips(), g.StealthFlips(); a != b {
		return a > b
	}
	if f.Flips != g.Flips {
		return f.Flips > g.Flips
	}
	if a, b := f.Blacklists+f.GuardViolations, g.Blacklists+g.GuardViolations; a != b {
		return a < b
	}
	return f.MitRefreshes < g.MitRefreshes
}

// String renders the fitness compactly for logs.
func (f Fitness) String() string {
	return fmt.Sprintf("flips=%d remaps=%d guard=%d/%d mit_refs=%d",
		f.Flips, f.Remapped, f.Blacklists, f.GuardViolations, f.MitRefreshes)
}

// Evaluate measures one pattern against a fresh target device.
func (t TargetSpec) Evaluate(p Pattern, reg *obs.Registry) (Fitness, error) {
	t = t.withDefaults()
	dev, err := t.Build(reg)
	if err != nil {
		return Fitness{}, err
	}
	return t.EvaluateOn(dev, p)
}

// EvaluateOn measures one pattern against an already-built target
// device (callers that need to attach a recorder or reuse a checkpoint
// build the device themselves via Build).
func (t TargetSpec) EvaluateOn(dev *nvme.Device, p Pattern) (Fitness, error) {
	t = t.withDefaults()
	ns, ok := dev.NamespaceByID(1)
	if !ok {
		return Fitness{}, fmt.Errorf("attack: fuzz target has no namespace 1")
	}
	pipe := Pipeline{
		Dev:      dev,
		NS:       ns,
		Path:     nvme.PathDirect,
		Alloc:    &ContiguousAllocator{MaxBindings: t.MaxBindings},
		Hammerer: &DeviceHammerer{Dev: dev, NS: ns, Path: nvme.PathDirect},
		// Arming a victim line costs LineEntries flash writes whose
		// L2P stores all activate the victim row; capping the armed
		// lines keeps the setup phase from hammering (and
		// guard-flagging) the target before the pattern under test
		// runs.
		Victim: &CanaryVictim{Dev: dev, NS: ns, Path: nvme.PathDirect, MaxLines: 2},
	}
	if p.Iterations == 0 {
		p.Iterations = t.Budget
	}
	res, err := pipe.Run(p)
	if err != nil {
		return Fitness{}, err
	}
	return Fitness{
		Flips:           res.Flips,
		Remapped:        res.Victim.Remapped,
		Corrupted:       res.Victim.Corrupted,
		Blacklists:      res.Blacklists,
		GuardViolations: res.GuardViolations,
		MitRefreshes:    res.MitRefreshes,
	}, nil
}

// Candidate is one evaluated pattern.
type Candidate struct {
	Pattern    Pattern
	Fitness    Fitness
	Generation int
}

// fuzzLoopSalt decorrelates the fuzzer's search stream from the
// fuzzed-pattern spec stream (which shares the user-visible seed).
const fuzzLoopSalt = 0x5EED5A17

// Fuzzer is a seeded deterministic search over pattern space: an
// elitist mutation loop whose fitness is "flips induced while the
// guard stays silent". The same Seed and Target always evaluate the
// same patterns in the same order and return the same report.
type Fuzzer struct {
	Target TargetSpec
	// Seed drives pattern generation and mutation.
	Seed uint64
	// Generations and Population size the search (defaults 4 and 8);
	// the top fuzzElite candidates of each generation survive and breed.
	Generations, Population int
	// Log, when non-nil, receives one line per generation.
	Log io.Writer
	// RunBatch, when non-nil, evaluates a whole generation and returns
	// one fitness per pattern in order — the hook the experiment runner
	// uses to fan evaluations out deterministically. Nil evaluates
	// sequentially via Target.Evaluate.
	RunBatch func(ps []Pattern) ([]Fitness, error)
	// Obs, when non-nil, receives fuzz events and counters.
	Obs *obs.Registry
}

// fuzzElite is how many top candidates of a generation survive and breed.
const fuzzElite = 2

// Report is the outcome of one fuzzer run.
type Report struct {
	// Baseline is the plain double-sided pattern under the same target
	// and budget — the reference the winner must beat.
	Baseline Candidate
	// Best is the winning candidate.
	Best Candidate
	// PerGeneration holds each generation's best candidate in order.
	PerGeneration []Candidate
	// Evaluated is the total number of pattern evaluations.
	Evaluated int
}

// Bypass reports whether the search found what the fuzz target is
// arranged to make discoverable: a pattern that flips bits without any
// guard reaction while the baseline stays blocked.
func (r *Report) Bypass() bool {
	return r.Best.Fitness.StealthFlips() > 0 && r.Baseline.Fitness.Flips == 0
}

// evaluate runs one generation's patterns through RunBatch or the
// sequential path.
func (f *Fuzzer) evaluate(pats []Pattern, gen int) ([]Candidate, error) {
	var fits []Fitness
	if f.RunBatch != nil {
		var err error
		fits, err = f.RunBatch(pats)
		if err != nil {
			return nil, err
		}
		if len(fits) != len(pats) {
			return nil, fmt.Errorf("attack: RunBatch returned %d fitnesses for %d patterns", len(fits), len(pats))
		}
	} else {
		for _, p := range pats {
			fit, err := f.Target.Evaluate(p, f.Obs)
			if err != nil {
				return nil, err
			}
			fits = append(fits, fit)
		}
	}
	out := make([]Candidate, len(pats))
	for i := range pats {
		out[i] = Candidate{Pattern: pats[i], Fitness: fits[i], Generation: gen}
	}
	if f.Obs != nil {
		f.Obs.Counter("fuzz_candidates_total").Add(uint64(len(pats)))
	}
	return out, nil
}

// rank sorts candidates best-first, stably, so equal fitness keeps
// insertion order and the search stays deterministic.
func rank(cands []Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].Fitness.Better(cands[j].Fitness)
	})
}

// Run executes the search and returns the report. Deterministic: all
// randomness flows from Seed through one sim.RNG stream that is
// consumed before evaluations, never interleaved with them.
func (f *Fuzzer) Run() (*Report, error) {
	gens, pop := f.Generations, f.Population
	if gens <= 0 {
		gens = 4
	}
	if pop <= 0 {
		pop = 8
	}
	elite := min(fuzzElite, pop)
	rng := sim.NewRNG(f.Seed ^ fuzzLoopSalt)

	// Generation 0: the classic shapes plus random draws. Member 0 is
	// the double-sided baseline the report compares against.
	pats := []Pattern{DoublePattern(), SinglePattern(), ManyPattern(3)}
	if len(pats) > pop {
		pats = pats[:pop]
	}
	for len(pats) < pop {
		pats = append(pats, GeneratePattern(rng))
	}

	rep := &Report{}
	cands, err := f.evaluate(pats, 0)
	if err != nil {
		return nil, err
	}
	rep.Evaluated += len(cands)
	rep.Baseline = cands[0]
	pool := append([]Candidate(nil), cands...)
	rank(pool)
	rep.PerGeneration = append(rep.PerGeneration, pool[0])
	f.logGen(0, pool[0], rep.Evaluated)

	for g := 1; g < gens; g++ {
		// Draw every mutation up front so the RNG stream does not
		// depend on how evaluations are scheduled.
		var next []Pattern
		for len(next) < pop {
			parent := pool[len(next)%elite].Pattern
			next = append(next, parent.Mutate(rng))
		}
		cands, err := f.evaluate(next, g)
		if err != nil {
			return nil, err
		}
		rep.Evaluated += len(cands)
		// Elitist merge: survivors compete with the new generation.
		pool = append(pool[:elite:elite], cands...)
		rank(pool)
		rep.PerGeneration = append(rep.PerGeneration, pool[0])
		f.logGen(g, pool[0], rep.Evaluated)
	}

	rep.Best = pool[0]
	if f.Obs != nil {
		if rep.Best.Fitness.StealthFlips() > 0 {
			f.Obs.Counter("fuzz_stealthy_wins_total").Add(1)
		}
		f.Obs.Emit(0, EvFuzzWinner,
			int64(rep.Best.Fitness.Flips),
			int64(rep.Best.Fitness.Blacklists+rep.Best.Fitness.GuardViolations),
			int64(rep.Best.Generation))
	}
	return rep, nil
}

// logGen reports one generation's best to the log writer and registry.
func (f *Fuzzer) logGen(g int, best Candidate, evaluated int) {
	if f.Obs != nil {
		f.Obs.Emit(0, EvFuzzGeneration,
			int64(g), int64(best.Fitness.StealthFlips()), int64(evaluated))
	}
	if f.Log != nil {
		fmt.Fprintf(f.Log, "gen %d: best %s (%s)\n", g, best.Pattern, best.Fitness)
	}
}
