package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// Ablations quantifies the design choices DESIGN.md calls out:
//
//   - hammer sidedness: double-sided vs single-sided vs one-location,
//     under open-row and closed-row controller policies (§3.1: "a
//     one-location variant can be simpler to implement on a device with
//     sufficient throughput"; single-sided "flips fewer bits in
//     practice");
//   - distance-two (half-double style) coupling, the successor technique
//     the paper cites as [42];
//   - firmware amplification factor (x1/x2/x5, §4.1);
//   - linear vs hashed L2P lookup cost (the price of the §5 randomization
//     mitigation).
//
// The sidedness and amplification sweeps fan their independent cells
// across the trial engine; each cell runs in its own world.
func Ablations(w io.Writer, opt Options) error {
	section(w, "Ablations", "design-choice studies")
	if err := ablateSidedness(w, opt); err != nil {
		return err
	}
	if err := ablateHalfDouble(w, opt.Obs); err != nil {
		return err
	}
	if err := ablateAmplification(w, opt); err != nil {
		return err
	}
	return ablateL2PLayout(w, opt.Quick, opt.Obs)
}

// ablationModule builds a module with a dense weak-cell population for
// counting flips under different patterns. reg (may be nil) observes it.
func ablationModule(policy dram.RowPolicy, blast2 uint64, reg *obs.Registry) (*dram.Module, *sim.Clock) {
	world := sim.NewWorld(0xAB1)
	world.Obs = reg
	m := dram.New(dram.Config{
		Geometry: dram.SmallGeometry(),
		Profile: dram.Profile{
			Name:            "ablation",
			HCfirst:         24000,
			ThresholdSigma:  0.1,
			WeakCellsPerRow: 4,
		},
		Policy:       policy,
		Blast2Weight: blast2,
		Seed:         0xAB1,
	}, world)
	return m, world.Clock
}

// pattern drives one access pattern at the given rate for a fixed access
// budget and reports flips.
func runPattern(m *dram.Module, clk *sim.Clock, rows []int, rate float64, accesses int) uint64 {
	addrs := make([]uint64, len(rows))
	for i, r := range rows {
		addrs[i] = m.Mapper().Unmap(dram.Location{Bank: 0, Row: r})
	}
	iv := sim.Interval(rate)
	before := m.Stats().Flips
	for i := 0; i < accesses; i++ {
		m.Activate(addrs[i%len(addrs)])
		clk.Advance(iv)
	}
	return m.Stats().Flips - before
}

// prepRows fills rows lo..hi of bank 0 with 0xAA so flips in either
// direction are visible.
func prepRows(m *dram.Module, lo, hi int) error {
	var scratch []uint64
	for r := lo; r <= hi; r++ {
		var err error
		if scratch, err = fillRow(m, dram.Location{Row: r}, 0xAA, scratch); err != nil {
			return err
		}
	}
	return nil
}

func ablateSidedness(w io.Writer, opt Options) error {
	fmt.Fprintf(w, "\nsidedness x row policy (equal near-threshold access budget):\n")
	fmt.Fprintf(w, "%-28s %12s %12s\n", "pattern", "open-row", "closed-row")
	// 1.5x the 24000 threshold: a pattern must concentrate its whole
	// budget on the victim to flip it, which is exactly what separates
	// the variants.
	const budget = 36000
	const rate = 4e6
	type pat struct {
		name string
		rows func(v int) []int
	}
	pats := []pat{
		{"double-sided (v-1, v+1)", func(v int) []int { return []int{v - 1, v + 1} }},
		{"single-sided (v-1, far)", func(v int) []int { return []int{v - 1, v + 400} }},
		{"one-location (v-1 only)", func(v int) []int { return []int{v - 1} }},
	}
	policies := []dram.RowPolicy{dram.OpenRow, dram.ClosedRow}
	// Each (pattern, policy) cell is an independent trial on its own
	// module; fan the 3x2 grid and reassemble in table order.
	cells, err := runTrialsObs(opt, len(pats)*len(policies), func(i int, reg *obs.Registry) (uint64, error) {
		p := pats[i/len(policies)]
		pol := policies[i%len(policies)]
		m, clk := ablationModule(pol, 0, reg)
		total := uint64(0)
		// Average over several victim rows to smooth cell placement.
		for _, v := range []int{101, 201, 301, 401} {
			if err := prepRows(m, v-2, v+2); err != nil {
				return 0, err
			}
			total += runPattern(m, clk, p.rows(v), rate, budget)
		}
		return total, nil
	})
	if err != nil {
		return err
	}
	results := make(map[string]map[dram.RowPolicy]uint64)
	for i, p := range pats {
		results[p.name] = map[dram.RowPolicy]uint64{
			dram.OpenRow:   cells[i*len(policies)],
			dram.ClosedRow: cells[i*len(policies)+1],
		}
	}
	for _, p := range pats {
		fmt.Fprintf(w, "%-28s %12d %12d\n", p.name, results[p.name][dram.OpenRow], results[p.name][dram.ClosedRow])
	}
	if results[pats[0].name][dram.OpenRow] <= results[pats[1].name][dram.OpenRow] {
		return fmt.Errorf("experiments: ablation shape broken: double-sided should beat single-sided")
	}
	if results[pats[2].name][dram.OpenRow] != 0 {
		return fmt.Errorf("experiments: one-location should be inert under open-row policy")
	}
	if results[pats[2].name][dram.ClosedRow] == 0 {
		return fmt.Errorf("experiments: one-location should work under closed-row policy")
	}
	fmt.Fprintf(w, "-> double-sided strongest; one-location needs a closed-row controller (§3.1)\n")
	return nil
}

func ablateHalfDouble(w io.Writer, reg *obs.Registry) error {
	fmt.Fprintf(w, "\ndistance-two coupling (half-double, paper ref [42]):\n")
	for _, blast := range []uint64{0, 8} {
		m, clk := ablationModule(dram.OpenRow, blast, reg)
		v := 151
		if err := prepRows(m, v-3, v+3); err != nil {
			return err
		}
		// Hammer only at distance two from the victim.
		flips := runPattern(m, clk, []int{v - 2, v + 2}, 8e6, 400000)
		victimFlips := uint64(0)
		for _, ev := range m.Flips() {
			if ev.Row == v {
				victimFlips++
			}
		}
		fmt.Fprintf(w, "  blast2-weight %d/16: distance-2 victim flips = %d (total %d)\n",
			blast, victimFlips, flips)
	}
	fmt.Fprintf(w, "-> distance-two rows only flip when the coupling extends beyond immediate neighbours\n")
	return nil
}

func ablateAmplification(w io.Writer, opt Options) error {
	fmt.Fprintf(w, "\nfirmware amplification (device-level, equal I/O budget):\n")
	fmt.Fprintf(w, "%-14s %14s %10s\n", "HammersPerIO", "activations/IO", "flips")
	ios := 120000
	if opt.Quick {
		ios = 60000
	}
	amps := []int{1, 2, 5}
	type ampRow struct {
		PerIO float64
		Flips uint64
	}
	rows, err := runTrialsObs(opt, len(amps), func(i int, reg *obs.Registry) (ampRow, error) {
		amp := amps[i]
		world := sim.NewWorld(0xAB2)
		world.Obs = reg
		clk := world.Clock
		mem := dram.New(dram.Config{
			Geometry: dram.SSDGeometry(),
			Profile: dram.Profile{
				Name:            "ablation",
				HCfirst:         24000,
				ThresholdSigma:  0.1,
				WeakCellsPerRow: 4,
			},
			Mapping: dram.MapperConfig{XorBank: true},
			Seed:    0xAB2,
		}, world)
		flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency())
		f, err := ftl.New(ftl.Config{NumLBAs: flash.Geometry().TotalPages() * 3 / 4, HammersPerIO: amp}, mem, flash)
		if err != nil {
			return ampRow{}, err
		}
		// Alternate two LBAs whose entries share a bank in different
		// rows; with the tiny flash the whole table fits in few rows,
		// so use entries far apart.
		buf := make([]byte, f.BlockBytes())
		a := ftl.LBA(0)
		b := ftl.LBA(f.NumLBAs() - 1)
		acc0, flips0 := mem.Accesses(), mem.Stats().Flips
		for i := 0; i < ios/2; i++ {
			if _, err := f.ReadLBA(a, buf); err != nil {
				return ampRow{}, err
			}
			if _, err := f.ReadLBA(b, buf); err != nil {
				return ampRow{}, err
			}
			clk.Advance(300 * sim.Nanosecond)
		}
		perIO := float64(mem.Accesses()-acc0) / float64(ios)
		return ampRow{PerIO: perIO, Flips: mem.Stats().Flips - flips0}, nil
	})
	if err != nil {
		return err
	}
	for i, amp := range amps {
		fmt.Fprintf(w, "%-14d %14.1f %10d\n", amp, rows[i].PerIO, rows[i].Flips)
	}
	fmt.Fprintf(w, "-> amplification multiplies per-IO activations (the paper's x5 testbed hack)\n")
	return nil
}

func ablateL2PLayout(w io.Writer, quick bool, reg *obs.Registry) error {
	fmt.Fprintf(w, "\nL2P layout lookup cost (DRAM line accesses per host read):\n")
	ios := 20000
	if quick {
		ios = 8000
	}
	for _, hashed := range []bool{false, true} {
		world := sim.NewWorld(1)
		world.Obs = reg
		mem := dram.New(dram.Config{
			Geometry: dram.SmallGeometry(),
			Profile:  dram.InvulnerableProfile(),
			Seed:     1,
		}, world)
		flash := nand.New(nand.TinyGeometry(), nand.DefaultLatency())
		f, err := ftl.New(ftl.Config{
			NumLBAs: flash.Geometry().TotalPages() * 3 / 4,
			Hashed:  hashed,
			HashKey: 0xFEED,
		}, mem, flash)
		if err != nil {
			return err
		}
		buf := make([]byte, f.BlockBytes())
		rng := sim.NewRNG(3)
		acc0 := mem.Accesses()
		for i := 0; i < ios; i++ {
			if _, err := f.ReadLBA(ftl.LBA(rng.Uint64n(f.NumLBAs())), buf); err != nil {
				return err
			}
		}
		perIO := float64(mem.Accesses()-acc0) / float64(ios)
		name := "linear"
		if hashed {
			name = "hashed (keyed)"
		}
		fmt.Fprintf(w, "  %-16s %6.2f accesses/read\n", name, perIO)
	}
	fmt.Fprintf(w, "-> the randomization mitigation costs little and defeats offline layout analysis\n")
	return nil
}
