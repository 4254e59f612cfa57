package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// Table1 reproduces the paper's Table 1: the minimal access rate that
// triggers bitflips, per DRAM module population. For each profile the
// experiment finds a hammerable row, then binary-searches the lowest
// double-sided access rate that still flips a bit within two refresh
// windows. The measured rate should track the reported rate, and the
// table's headline trend — newer, denser modules flip at lower rates —
// must hold.
//
// Each profile's search is an independent trial (own world, own modules),
// so the rows fan across the trial engine and print in table order.
func Table1(w io.Writer, opt Options) error {
	section(w, "Table 1", "minimal access rate to trigger bitflips")
	fmt.Fprintf(w, "%-6s %-14s %14s %14s %8s\n",
		"year", "type", "paper(K acc/s)", "sim(K acc/s)", "ratio")

	profiles := dram.Table1Profiles()
	if opt.Quick {
		profiles = []dram.Profile{profiles[0], profiles[3], profiles[11], profiles[13]}
	}
	measured, err := runTrialsObs(opt, len(profiles), func(i int, reg *obs.Registry) (float64, error) {
		m, err := minimalFlipRate(profiles[i], reg)
		if err != nil {
			return 0, fmt.Errorf("experiments: %s: %w", profiles[i].Name, err)
		}
		return m, nil
	})
	if err != nil {
		return err
	}
	for i, p := range profiles {
		ratio := measured[i] / (float64(p.MinRateKps) * 1000)
		fmt.Fprintf(w, "%-6d %-14s %14d %14.0f %8.2f\n",
			p.Year, p.Name, p.MinRateKps, measured[i]/1000, ratio)
	}
	return nil
}

// minimalFlipRate binary-searches the flip threshold rate for a profile.
// reg (may be nil) observes every probe module the search builds.
func minimalFlipRate(p dram.Profile, reg *obs.Registry) (float64, error) {
	// Boost density so a weak row is easy to find; thresholds are what
	// is being measured, not cell frequency.
	cfg := dram.Config{
		Geometry: dram.SmallGeometry(),
		Profile:  p,
		Seed:     42,
	}
	cfg.Profile.WeakCellsPerRow = 4
	cfg.Profile.ThresholdSigma = 0 // measure HCfirst itself

	// Find a row that flips at a generous rate. The row-address scratch
	// is reused across probe modules (the mapping is identical).
	var scratch []uint64
	var err error
	victim := -1
	for row := 11; row < 400; row += 4 {
		world := sim.NewWorld(cfg.Seed)
		world.Obs = reg
		m := dram.New(cfg, world)
		if scratch, err = fillRow(m, dram.Location{Row: row}, 0xFF, scratch); err != nil {
			return 0, err
		}
		if hammerModule(m, world.Clock, row, 32e6, 128*sim.Millisecond) {
			victim = row
			break
		}
	}
	if victim < 0 {
		return 0, fmt.Errorf("no hammerable row found")
	}
	// Binary search the minimal rate on a fresh module each probe.
	lo, hi := 50e3, 32e6 // K access/s bounds well outside Table 1's range
	for i := 0; i < 18 && hi/lo > 1.02; i++ {
		mid := (lo + hi) / 2
		world := sim.NewWorld(cfg.Seed)
		world.Obs = reg
		m := dram.New(cfg, world)
		if scratch, err = fillRow(m, dram.Location{Row: victim}, 0xFF, scratch); err != nil {
			return 0, err
		}
		if hammerModule(m, world.Clock, victim, mid, 128*sim.Millisecond) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
