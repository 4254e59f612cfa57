package experiments

import (
	"fmt"
	"io"
	"runtime"
)

// Experiment is one reproducible table/figure of the paper.
type Experiment struct {
	// ID is a short handle ("table1", "figure2", ...).
	ID string
	// Ref is the paper reference ("Table 1", "§4.3", ...).
	Ref string
	// Title describes what is reproduced.
	Title string
	// Run executes the experiment, writing rows to w. Options select
	// quick mode (population sizes trade for runtime; shapes are
	// preserved) and the trial-engine worker count (which never affects
	// output, only wall-clock time).
	Run func(w io.Writer, opt Options) error
}

// All returns the registry in paper order. Every Run collects the heap
// when it returns (collectAfter).
func All() []Experiment {
	all := []Experiment{
		{"table1", "Table 1", "minimal access rate to trigger bitflips", Table1},
		{"figure1", "Figure 1", "two-sided FTL rowhammer redirects an L2P entry", Figure1},
		{"figure2", "Figure 2", "attack path feasibility: host-FS vs direct access", Figure2},
		{"figure3", "Figure 3", "ext4 indirect-block information leak, end to end", Figure3},
		{"escalation", "§3.2", "privilege escalation via setuid hijack", Escalation},
		{"calib", "§4.1", "testbed calibration (rates, amplification, triples)", Calibration41},
		{"ttl", "§4.2", "time to useful bitflip vs spray coverage", TimeToLeak42},
		{"prob", "§4.3", "probability of success, analytic + Monte Carlo", Probability43},
		{"mitig", "§5", "mitigations", Mitigations5},
		{"ablations", "DESIGN §5", "design-choice ablations (sidedness, half-double, amplification, L2P layout)", Ablations},
		{"faults", "docs/FAULTS.md", "robustness campaign: goodput and attack success vs injected fault rate", FaultsRobustness},
		{"blast", "docs/FLEET.md", "fleet blast radius: placement bounds rowhammer reach to one device", Blast},
		{"defenses", "docs/DEFENSES.md", "guard vs in-DRAM mitigation zoo: effectiveness and benign overhead under multi-tenant load", Defenses},
		{"fuzz", "docs/ATTACKS.md", "guard-bypass pattern fuzzer: search for stealthy flips on the pinned trr:1 target", Fuzz},
		{"victims", "docs/VICTIMS.md", "victim scenario zoo: what software above the device observes", Victims},
	}
	for i := range all {
		all[i].Run = collectAfter(all[i].Run)
	}
	return all
}

// collectAfter wraps an experiment so the heap is collected when it
// returns. Experiments build simulated devices of hundreds of MB that are
// garbage once Run returns. Without a collection the next experiment in
// the same process grows into that garbage, up to the heap goal set while
// the device was live, so the peak memory of back-to-back runs (repro
// -all, the benchmark's suite) depended on where the last collection
// happened to land: 558-1,021 MB peak RSS over runs of the same fourteen
// experiments on a 2-CPU host, and 544-575 MB with the collection.
// runTrials does the same after every trial.
func collectAfter(run func(io.Writer, Options) error) func(io.Writer, Options) error {
	return func(w io.Writer, opt Options) error {
		defer runtime.GC()
		return run(w, opt)
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
