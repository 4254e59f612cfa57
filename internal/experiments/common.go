package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/sim"
)

// section prints an experiment header.
func section(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s: %s ===\n", id, title)
}

// hammerModule drives a double-sided hammer directly against a DRAM module
// at the given total access rate, for the given virtual duration, and
// reports whether any bit flipped. Used by the rate-threshold experiments.
func hammerModule(m *dram.Module, clk *sim.Clock, victimRow int, rate float64, dur sim.Duration) bool {
	before := m.Stats().Flips
	iv := sim.Interval(rate)
	a := m.Mapper().Unmap(dram.Location{Bank: 0, Row: victimRow - 1})
	b := m.Mapper().Unmap(dram.Location{Bank: 0, Row: victimRow + 1})
	end := clk.Now().Add(dur)
	for i := 0; clk.Now() < end; i++ {
		m.Activate(a)
		clk.Advance(iv)
		m.Activate(b)
		clk.Advance(iv)
		if i&511 == 0 && m.Stats().Flips > before {
			return true
		}
	}
	return m.Stats().Flips > before
}

// fillRow writes fill over every 64-byte line of the row at loc: 0xFF
// gives true-cells charge to lose, 0xAA keeps flips in either direction
// visible. The row-address scratch slice is reused across calls: pass the
// previous return value (or nil) to keep the enumeration allocation-free
// in loops.
func fillRow(m *dram.Module, loc dram.Location, fill byte, scratch []uint64) ([]uint64, error) {
	var line [64]byte
	for i := range line {
		line[i] = fill
	}
	scratch = m.Mapper().AppendRowAddrs(scratch[:0], loc, len(line))
	for _, addr := range scratch {
		if err := m.Write(addr, line[:]); err != nil {
			return scratch, err
		}
	}
	return scratch, nil
}

// paperTestbedConfig is the §4.1 cloud environment at full scale: the
// testbed preset's 1 GiB SSD and vulnerable DRAM, x5 amplification. The
// DRAM config is the preset's own, held as an override so callers can
// change it; each call returns a fresh copy.
func paperTestbedConfig(seed uint64) cloud.Config {
	dcfg, _, _ := fleet.Preset("testbed") // a known name cannot fail
	return cloud.Config{
		Device: fleet.DeviceSpec{Profile: "testbed", Amplify: 5, DRAM: &dcfg},
		Seed:   seed,
	}
}

// quickTestbedConfig is a scaled testbed (512 MiB SSD, softer flip
// threshold) for fast runs; the shape of every result is preserved. Each
// call returns fresh DRAM and flash configs, so callers can change them.
func quickTestbedConfig(seed uint64) cloud.Config {
	return cloud.Config{
		Device: fleet.DeviceSpec{
			Amplify: 5,
			DRAM: &dram.Config{
				Geometry: dram.SSDGeometry(),
				Timing:   dram.DefaultTiming(),
				Profile: dram.Profile{
					Name:            "scaled testbed DDR3",
					HCfirst:         24000,
					ThresholdSigma:  0.1,
					WeakCellsPerRow: 2.0,
				},
				Mapping: dram.MapperConfig{
					Twist:      dram.TwistInterleave,
					TwistGroup: 8,
					XorBank:    true,
				},
			},
			Flash: &nand.Geometry{
				Channels:      4,
				DiesPerChan:   2,
				PlanesPerDie:  2,
				BlocksPerPlan: 32,
				PagesPerBlock: 256,
				PageBytes:     4096,
			},
		},
		VictimFillBlocks: 6144,
		Seed:             seed,
	}
}
