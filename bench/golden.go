package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"

	"ftlhammer/internal/experiments"
)

// goldensPath is where -regen-goldens writes, relative to the repository
// root. The benchmark binary embeds the file, so runs need no path.
const goldensPath = "bench/testdata/goldens.json"

//go:embed testdata/goldens.json
var goldensJSON []byte

// goldens are the expected outputs every run is checked against.
type goldens struct {
	// Experiments maps an experiment ID to the SHA-256 of its quick,
	// serial output (see maskOutput) and the NVMe commands its devices
	// serve. The count is what cmds_per_s divides by on experiment
	// workloads, whose devices the benchmark cannot see untraced; traced
	// runs re-count and check it. Experiments in fleetExperiments have no
	// count.
	Experiments map[string]expGolden `json:"experiments"`
	// Hammer holds the hammer workload's outcome per seed and size.
	Hammer []hammerGolden `json:"hammer"`
	// Served is the served workload's rule, the same for every seed.
	Served servedRule `json:"served"`
}

type expGolden struct {
	SHA256   string  `json:"sha256"`
	Commands *uint64 `json:"commands,omitempty"`
}

// fleetExperiments serve their NVMe traffic through a fleet. Each fleet
// member records into its own registry, which only Fleet.MergedRegistry
// reads, so Options.Obs never sees those commands: the goldens record no
// count for these experiments, and suite's cmds_per_s and traced nvme, ftl
// and dram counts leave them out.
var fleetExperiments = map[string]bool{"blast": true}

type hammerGolden struct {
	Seed       uint64 `json:"seed"`
	Iterations int    `json:"iterations"`
	Bindings   int    `json:"bindings"`
	hammerOutcome
}

// hammerOutcome is what one hammer pipeline run measured.
type hammerOutcome struct {
	Flips     uint64 `json:"flips"`
	Remapped  int    `json:"remapped"`
	Corrupted int    `json:"corrupted"`
	Commands  uint64 `json:"commands"`
}

// servedRule bounds the served workload's failures.
type servedRule struct {
	CommandErrors    int64 `json:"command_errors"`
	CorruptReadbacks int64 `json:"corrupt_readbacks"`
}

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	return &g, nil
}

// hammer returns the golden outcome for a hammer run, if one is recorded.
func (g *goldens) hammer(seed uint64, iters, bindings int) (hammerOutcome, bool) {
	for _, h := range g.Hammer {
		if h.Seed == seed && h.Iterations == iters && h.Bindings == bindings {
			return h.hammerOutcome, true
		}
	}
	return hammerOutcome{}, false
}

// blastRemap matches the blast experiment's remap report. At
// internal/experiments/blast.go:235 the experiment ranges over a Go map and
// prints the first remapped LBA it meets, so the LBA and both PBAs differ
// from run to run. Only those fields are masked; once that loop iterates
// in a fixed order the mask can go.
var blastRemap = regexp.MustCompile(`LBA \d+ remapped PBA 0x[0-9a-f]+ -> PBA 0x[0-9a-f]+`)

// maskOutput removes the parts of an experiment's output that are not
// deterministic.
func maskOutput(id string, out []byte) []byte {
	if id == "blast" {
		return blastRemap.ReplaceAll(out, []byte("LBA * remapped PBA * -> PBA *"))
	}
	return out
}

func digest(id string, out []byte) string {
	sum := sha256.Sum256(maskOutput(id, out))
	return hex.EncodeToString(sum[:])
}

// writeGoldens stores g at goldensPath.
func writeGoldens(g *goldens) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldensPath, append(data, '\n'), 0o644)
}

// hammerGoldenSeeds is how many seeds, from 1, have a golden hammer
// outcome; other seeds are checked for agreement between a run's units.
const hammerGoldenSeeds = 10

// regenGoldens reruns every experiment and the hammer workload for each
// golden seed and rewrites the goldens file. Run it from the repository root:
//
//	bash bench/run.sh -regen-goldens
func regenGoldens() error {
	g := &goldens{Experiments: map[string]expGolden{}}
	r := &runner{seed: defaultSeed, sz: defaultSizes(), gold: &goldens{}}
	for _, id := range experimentIDs {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		var out bytes.Buffer
		c := counts{}
		if _, err := runExperiment(e, &out, c, nil); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		eg := expGolden{SHA256: digest(id, out.Bytes())}
		if !fleetExperiments[id] {
			n := c["nvme_commands_total"]
			eg.Commands = &n
		}
		g.Experiments[id] = eg
		fmt.Fprintf(os.Stderr, "golden %-10s %s %d commands\n", id, eg.SHA256[:12], c["nvme_commands_total"])
	}
	for seed := uint64(1); seed <= hammerGoldenSeeds; seed++ {
		r.seed = seed
		h := &hammerWorkload{}
		if err := h.setup(r, false); err != nil {
			return err
		}
		o, err := h.pipeline(r, false)
		if err != nil {
			return fmt.Errorf("hammer seed %d: %w", seed, err)
		}
		g.Hammer = append(g.Hammer, hammerGolden{Seed: seed, Iterations: r.sz.hammerIters, Bindings: r.sz.hammerBindings, hammerOutcome: o})
		fmt.Fprintf(os.Stderr, "golden hammer seed %d: %+v\n", seed, o)
	}
	return writeGoldens(g)
}
