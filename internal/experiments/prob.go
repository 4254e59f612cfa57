package experiments

import (
	"fmt"
	"io"
	"math"

	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// probParams are the §4.3 model parameters. All quantities are block
// counts.
type probParams struct {
	// LB and PB are the device's total logical and physical blocks.
	LB, PB float64
	// Cv and Ca are the victim and attacker partition sizes
	// (Cv + Ca <= LB).
	Cv, Ca float64
	// Fv is the number of blocks in files the attacker sprays inside
	// the victim partition (half become indirect blocks, half data).
	Fv float64
	// Fa is the number of malicious blocks sprayed in the attacker
	// partition.
	Fa float64
}

// validate reports parameter inconsistencies.
func (p probParams) validate() error {
	if p.LB <= 0 || p.PB <= 0 {
		return fmt.Errorf("experiments: LB/PB must be positive")
	}
	if p.Cv+p.Ca > p.LB {
		return fmt.Errorf("experiments: Cv+Ca (%g) exceeds LB (%g)", p.Cv+p.Ca, p.LB)
	}
	if p.Fv > p.Cv || p.Fa > p.Ca {
		return fmt.Errorf("experiments: spray exceeds partition size")
	}
	if p.Fv < 0 || p.Fa < 0 {
		return fmt.Errorf("experiments: negative spray")
	}
	return nil
}

// paperScenario returns the §4.3 illustration: equal partitions
// (Cv = Ca = PB/2 = LB/2), victim partition 25% sprayed, attacker
// partition 100% sprayed. The paper computes ≈7% for a single cycle.
func paperScenario() probParams {
	const pb = 1 << 18 // any size; the ratios drive the result
	return probParams{
		LB: pb, PB: pb,
		Cv: pb / 2, Ca: pb / 2,
		Fv: pb / 8, // 25% of Cv
		Fa: pb / 2, // 100% of Ca
	}
}

// singleCycle evaluates the closed-form §4.3 success probability of one
// attack cycle:
//
//	P = (Fv/2)/Cv * ((Fv/2 + Fa)/PB) = Fv(Fv+2Fa) / (4*Cv*PB)
func (p probParams) singleCycle() float64 {
	if err := p.validate(); err != nil {
		return 0
	}
	return p.Fv * (p.Fv + 2*p.Fa) / (4 * p.Cv * p.PB)
}

// afterCycles returns the probability of at least one success in n
// independent cycles: 1 - (1-P)^n. The paper: "repeating the attack
// cycle for 10 times brings the chances of success to more than 50%".
func (p probParams) afterCycles(n int) float64 {
	return 1 - math.Pow(1-p.singleCycle(), float64(n))
}

// cyclesFor returns the number of cycles needed to reach the target
// success probability.
func (p probParams) cyclesFor(target float64) int {
	single := p.singleCycle()
	if single <= 0 || target <= 0 || target >= 1 {
		return math.MaxInt32
	}
	return int(math.Ceil(math.Log(1-target) / math.Log(1-single)))
}

// monteCarloShard simulates `trials` independent cycles of the §4.3
// model from its own random stream and returns the success count: a
// bitflip strikes a uniformly random victim-partition translation, and
// is useful when that translation belonged to a sprayed indirect block
// AND its new physical target holds malicious content. Shard counts sum
// to the same total regardless of which worker ran which shard.
func (p probParams) monteCarloShard(trials int, seed uint64) int {
	if err := p.validate(); err != nil {
		return 0
	}
	rng := sim.NewRNG(seed)
	cv := uint64(p.Cv)
	pb := uint64(p.PB)
	indirect := uint64(p.Fv / 2)       // sprayed indirect blocks in Cv
	malicious := uint64(p.Fv/2 + p.Fa) // malicious data blocks device-wide
	success := 0
	for i := 0; i < trials; i++ {
		entry := rng.Uint64n(cv)
		if entry >= indirect {
			continue // flip hit a translation we did not control
		}
		newPBA := rng.Uint64n(pb)
		if newPBA < malicious {
			success++
		}
	}
	return success
}

// mcShardTrials is the fixed Monte Carlo shard size. Shard boundaries and
// per-shard seeds depend only on (trial budget, base seed), never on the
// worker count, so the §4.3 estimate is bit-identical at any parallelism.
const mcShardTrials = 50_000

// monteCarloParallel estimates the single-cycle success probability by
// fanning fixed-size shards across the trial engine and merging the
// per-shard success counts in shard order.
func monteCarloParallel(p probParams, trials int, seed uint64, opt Options) float64 {
	if trials <= 0 {
		return 0
	}
	shards := (trials + mcShardTrials - 1) / mcShardTrials
	counts, _ := runTrialsObs(opt, shards, func(i int, reg *obs.Registry) (int, error) {
		n := mcShardTrials
		if rem := trials - i*mcShardTrials; rem < n {
			n = rem
		}
		hits := p.monteCarloShard(n, sim.SplitSeed(seed, uint64(i)))
		reg.CounterAdd("prob_mc_trials_total", uint64(n))
		reg.CounterAdd("prob_mc_successes_total", uint64(hits))
		return hits, nil
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / float64(trials)
}

// Probability43 reproduces the §4.3 analysis: the closed-form success
// probability of one attack cycle under the paper's illustration
// parameters (equal partitions, 25% victim spray, 100% attacker spray),
// validated by Monte Carlo simulation, plus the cumulative probability
// over repeated cycles ("repeating the attack cycle for 10 times brings
// the chances of success to more than 50%").
func Probability43(w io.Writer, opt Options) error {
	section(w, "§4.3", "probability of a useful bitflip")
	p := paperScenario()
	trials := 2_000_000
	if opt.Quick {
		trials = 300_000
	}
	analytic := p.singleCycle()
	mc := monteCarloParallel(p, trials, 0x43, opt)
	fmt.Fprintf(w, "parameters: Cv=Ca=PB/2, Fv=Cv/4, Fa=Ca (paper's illustration)\n")
	fmt.Fprintf(w, "single cycle: analytic=%.4f (paper: 7%%), monte-carlo(%d)=%.4f\n", analytic, trials, mc)
	fmt.Fprintf(w, "\n%-8s %12s\n", "cycles", "P(success)")
	for _, n := range []int{1, 2, 5, 10, 20, 30} {
		fmt.Fprintf(w, "%-8d %12.4f\n", n, p.afterCycles(n))
	}
	fmt.Fprintf(w, "cycles to 50%%: %d (paper: 10)\n", p.cyclesFor(0.5))

	// Sensitivity: how the per-cycle probability scales with spray
	// coverage (the knob the paper's SPDK setup limited to 5%).
	fmt.Fprintf(w, "\nspray coverage sensitivity (Fa=Ca fixed):\n%-24s %14s %14s\n",
		"victim spray (Fv/Cv)", "P(1 cycle)", "cycles to 50%")
	for _, frac := range []float64{0.05, 0.10, 0.25, 0.50, 1.00} {
		q := p
		q.Fv = q.Cv * frac
		fmt.Fprintf(w, "%-24.2f %14.4f %14d\n", frac, q.singleCycle(), q.cyclesFor(0.5))
	}
	if p.afterCycles(10) <= 0.5 {
		return fmt.Errorf("experiments: §4.3 shape broken: 10 cycles should exceed 50%%")
	}
	return nil
}
