package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// Calibration41 reproduces the §4.1 testbed numbers:
//
//   - the linear L2P table costs 1 MiB of DRAM per 1 GiB of capacity;
//   - the testbed DIMMs flip from direct accesses at ~3 M/s;
//   - at x5 amplification the firmware performs ~5x more DRAM accesses,
//     so the SPDK-level access rate must be ~7 M/s;
//   - the mapping exposes ~32 cross-partition vulnerable row triples
//     ("on the lower end").
func Calibration41(w io.Writer, opt Options) error {
	section(w, "§4.1", "testbed calibration")

	// L2P size ratio.
	world := sim.NewWorld(1)
	world.Obs = opt.Obs
	mem := dram.New(dram.Config{Geometry: dram.SSDGeometry(), Profile: dram.InvulnerableProfile(), Seed: 1}, world)
	flash := nand.New(nand.DefaultGeometry(), nand.DefaultLatency())
	f, err := ftl.New(ftl.Config{NumLBAs: flash.Geometry().TotalPages() * 15 / 16}, mem, flash)
	if err != nil {
		return err
	}
	capacity := f.NumLBAs() * uint64(f.BlockBytes())
	fmt.Fprintf(w, "L2P table: %.2f MiB for %.2f GiB exported (paper: ~1 MiB/GiB)\n",
		float64(f.TableBytes())/(1<<20), float64(capacity)/(1<<30))

	// Direct-access flip threshold of the testbed profile.
	profile := dram.TestbedProfile()
	rate, err := minimalFlipRate(profile, opt.Obs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "direct DRAM access flip threshold: %.2f M/s (paper: 3 M/s)\n", rate/1e6)

	// SPDK-level access rate at x5 amplification: measure DRAM accesses
	// per I/O on the device read path.
	cfg := paperTestbedConfig(0x41)
	cfg.VictimFillBlocks = 512
	cfg.Obs = opt.Obs
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		return err
	}
	bindings, err := attack.Analyze(tb.Device, tb.AttackerNS, attack.AnalyzeOptions{VictimNSID: tb.VictimNS.ID})
	if err != nil {
		return err
	}
	// Trim the first LBA of each side; the rate probe itself cycles
	// through every LBA the binding lists.
	if _, err := attack.PinAndTrim(tb.Device, tb.AttackerNS, nvme.PathDirect, bindings[0]); err != nil {
		return err
	}
	h := &attack.DeviceHammerer{Dev: tb.Device, NS: tb.AttackerNS, Path: nvme.PathDirect}
	acc0 := tb.Device.DRAM().Accesses()
	iops, err := attack.MeasuredRate(h, bindings[0], 20000)
	if err != nil {
		return err
	}
	accessesPerIO := float64(tb.Device.DRAM().Accesses()-acc0) / 20000
	fmt.Fprintf(w, "amplification: x%d -> %.1f DRAM accesses per I/O\n",
		tb.Device.FTL().Config().HammersPerIO, accessesPerIO)
	amp := float64(tb.Device.FTL().Config().HammersPerIO)
	fmt.Fprintf(w, "achievable direct IOPS: %.2f M/s -> aggressor activation rate %.2f M/s (paper: ~7 M/s at ~1.4 M IOPS)\n",
		iops/1e6, iops*amp/1e6)

	// Cross-partition vulnerable-triple census: candidates from the
	// offline analysis, then a per-row hammerability test on an
	// identically-configured standalone module (weak cells are a
	// deterministic function of seed, bank and row). Each candidate probe
	// is an independent trial, so the census fans across the engine.
	candidates := bindings
	fmt.Fprintf(w, "cross-partition triple candidates: %d\n", len(candidates))
	probe := tb.Device.DRAM().Config()
	limit := len(candidates)
	if opt.Quick && limit > 24 {
		limit = 24
	}
	verdicts, err := runTrialsObs(opt, limit, func(i int, reg *obs.Registry) (bool, error) {
		return rowFlips(probe, candidates[i].Triple, reg), nil
	})
	if err != nil {
		return err
	}
	vulnerable := 0
	for _, v := range verdicts {
		if v {
			vulnerable++
		}
	}
	if limit == len(candidates) {
		fmt.Fprintf(w, "vulnerable (hammerable victim row): %d (paper: 32, \"on the lower end\")\n", vulnerable)
	} else {
		fmt.Fprintf(w, "vulnerable among first %d candidates: %d (extrapolated: ~%d; paper: 32)\n",
			limit, vulnerable, vulnerable*len(candidates)/limit)
	}
	return nil
}

// rowFlips tests one triple's victim row for hammerability on a fresh
// module with the same fault seed. reg (may be nil) observes the probe.
func rowFlips(cfg dram.Config, tr dram.Triple, reg *obs.Registry) bool {
	world := sim.NewWorld(cfg.Seed)
	world.Obs = reg
	clk := world.Clock
	m := dram.New(cfg, world)
	loc := dram.Location{Channel: tr.Channel, DIMM: tr.DIMM, Rank: tr.Rank, Bank: tr.Bank, Row: tr.VictimRow}
	if _, err := fillRow(m, loc, 0xAA, nil); err != nil {
		return false
	}
	a := m.Mapper().Unmap(dram.Location{Channel: tr.Channel, DIMM: tr.DIMM, Rank: tr.Rank, Bank: tr.Bank, Row: tr.AggRows[0]})
	b := m.Mapper().Unmap(dram.Location{Channel: tr.Channel, DIMM: tr.DIMM, Rank: tr.Rank, Bank: tr.Bank, Row: tr.AggRows[1]})
	before := m.Stats().Flips
	iv := sim.Interval(8e6)
	budget := int(cfg.Profile.HCfirst) * 3
	for i := 0; i < budget; i++ {
		m.Activate(a)
		clk.Advance(iv)
		m.Activate(b)
		clk.Advance(iv)
		if i&1023 == 0 && m.Stats().Flips > before {
			return true
		}
	}
	return m.Stats().Flips > before
}
