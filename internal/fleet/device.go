package fleet

import (
	"fmt"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/guard"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// DeviceSpec describes one simulated device. Build is the one place this
// repository assembles an SSD: cmd/hammerd, the fleet layer, the cloud
// testbed, the experiments and the perf fixtures all go through it. Two
// devices built from equal specs and equal seeds have equal nvme config
// digests — the precondition for migrating a checkpoint between them.
type DeviceSpec struct {
	// Profile names the preset the device starts from (see Preset):
	// "testbed", "weak" or "invulnerable". DRAM, Flash and FTL override
	// parts of it.
	Profile string
	// Tenants is how many equal namespaces are carved from the device.
	Tenants int
	// Amplify is the firmware hammers-per-IO knob (paper testbed: 5).
	Amplify int
	// FaultRate drives the standard device fault mix (faults.RatePlan);
	// non-zero implies the robustness policy.
	FaultRate float64
	// Faults, when non-nil, is an explicit injection plan used INSTEAD
	// of the FaultRate-derived mix (ConnFaultRate still composes on
	// top). Experiments use it to aim single deterministic faults —
	// e.g. one KindDRAMBitFlip at a chosen L2P entry.
	Faults *faults.Plan
	// ConnFaultRate adds per-batch connection resets for the transport.
	ConnFaultRate float64
	// Robust enables the NVMe retry/timeout/degradation policy even at
	// fault rate zero.
	Robust bool
	// MaxIOPS, when non-zero, statically rate-limits every namespace.
	MaxIOPS float64
	// DRAM, when non-nil, replaces the preset's DRAM config and is used
	// as given: a zero Timing stays zero, so the module enforces no
	// tRC/tFAW. Build still stamps the Seed field.
	DRAM *dram.Config
	// Flash, when non-nil, replaces the preset's NAND geometry.
	Flash *nand.Geometry
	// FTL, when non-nil, replaces the default FTL config (an L2P cache,
	// the hashed layout, a smaller logical capacity). A zero NumLBAs
	// still means 15/16 of the flash, and Amplify still sets
	// HammersPerIO.
	FTL *ftl.Config
	// Guard, when non-nil, attaches the firmware-side Bloom-filter
	// hammer guard (internal/guard) with this configuration.
	Guard *guard.Config
}

// Preset returns the DRAM config and NAND geometry a profile names. Every
// preset has the SSD DRAM geometry, the default tRC/tFAW timing and the
// reverse-engineered mapping (bank XOR plus row interleave):
//   - "testbed" is the paper's §4.1 SSD: its vulnerable DDR3 profile,
//     rows interleaved in groups of 16, over 1 GiB of flash;
//   - "weak" is a scaled DRAM that flips after 24000 disturbances, rows
//     interleaved in groups of 8, over 512 MiB of flash;
//   - "invulnerable" is the weak device with DRAM that never flips.
//
// Each call returns fresh values the caller may change.
func Preset(profile string) (dram.Config, nand.Geometry, error) {
	dcfg := dram.Config{
		Geometry: dram.SSDGeometry(),
		Timing:   dram.DefaultTiming(),
		Mapping: dram.MapperConfig{
			Twist:      dram.TwistInterleave,
			TwistGroup: 8,
			XorBank:    true,
		},
	}
	geom := nand.Geometry{
		Channels:      4,
		DiesPerChan:   2,
		PlanesPerDie:  2,
		BlocksPerPlan: 32,
		PagesPerBlock: 256,
		PageBytes:     4096,
	}
	switch profile {
	case "testbed":
		dcfg.Profile = dram.TestbedProfile()
		dcfg.Mapping.TwistGroup = 16
		geom = nand.DefaultGeometry()
	case "weak":
		dcfg.Profile = dram.Profile{
			Name:            "weak DDR (scaled)",
			HCfirst:         24000,
			ThresholdSigma:  0.1,
			WeakCellsPerRow: 2.0,
		}
	case "invulnerable":
		dcfg.Profile = dram.InvulnerableProfile()
	default:
		return dram.Config{}, nand.Geometry{}, fmt.Errorf("fleet: unknown profile %q", profile)
	}
	return dcfg, geom, nil
}

// fillDefaults normalizes the zero value to hammerd's historical defaults.
func (sp *DeviceSpec) fillDefaults() {
	if sp.Profile == "" {
		sp.Profile = "weak"
	}
	if sp.Tenants == 0 {
		sp.Tenants = 4
	}
	if sp.Amplify == 0 {
		sp.Amplify = 1
	}
}

// Validate rejects specs the builder would misassemble. It is the only
// check the commands make on their device flags.
func (sp DeviceSpec) Validate() error {
	if sp.Tenants < 1 || sp.Tenants > 0xFFFF {
		return fmt.Errorf("fleet: tenants per device must be in [1, 65535], got %d", sp.Tenants)
	}
	// Written so that NaN fails too.
	if !(sp.FaultRate >= 0 && sp.FaultRate <= 1) || !(sp.ConnFaultRate >= 0 && sp.ConnFaultRate <= 1) {
		return fmt.Errorf("fleet: fault rates must be in [0,1], got %g and %g", sp.FaultRate, sp.ConnFaultRate)
	}
	if sp.Amplify < 0 {
		return fmt.Errorf("fleet: amplification must not be negative, got %d", sp.Amplify)
	}
	_, _, err := Preset(sp.Profile)
	return err
}

// BuiltDevice is one assembled device with the parts its owner needs to
// serve, fault and checkpoint it.
type BuiltDevice struct {
	Device   *nvme.Device
	Injector *faults.Injector
	// PerNS is each namespace's size in LBAs.
	PerNS uint64
	// ProfileName names the DRAM profile actually used.
	ProfileName string
}

// Build assembles a device from the spec under the given seed. The
// registry (nil allowed) becomes the device world's observability sink.
func (sp DeviceSpec) Build(seed uint64, reg *obs.Registry) (*BuiltDevice, error) {
	sp.fillDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}

	dcfg, geom, _ := Preset(sp.Profile) // Validate checked the name
	if sp.DRAM != nil {
		dcfg = *sp.DRAM
	}
	if sp.Flash != nil {
		geom = *sp.Flash
	}
	dcfg.Seed = seed
	var fcfg ftl.Config
	if sp.FTL != nil {
		fcfg = *sp.FTL
	}
	if fcfg.NumLBAs == 0 {
		fcfg.NumLBAs = geom.TotalPages() * 15 / 16
	}
	fcfg.HammersPerIO = sp.Amplify

	plan := faults.RatePlan(sp.FaultRate)
	if sp.Faults != nil {
		plan = *sp.Faults
	}
	if sp.ConnFaultRate > 0 {
		plan = plan.With(faults.Rule{Kind: faults.KindConnReset, Probability: sp.ConnFaultRate})
	}

	world := sim.NewWorld(seed)
	world.Obs = reg
	inj := faults.New(plan, world)
	mem := dram.New(dcfg, world)
	flash := nand.New(geom, nand.DefaultLatency(), nand.WithFaults(inj))
	f, err := ftl.New(fcfg, mem, flash)
	if err != nil {
		return nil, err
	}
	f.SetFaults(inj)
	ncfg := nvme.Config{Faults: inj}
	if sp.Robust || sp.FaultRate > 0 {
		ncfg.Robust = nvme.DefaultRobust()
	}
	dev := nvme.New(ncfg, f, mem, flash, world)
	per := f.NumLBAs() / uint64(sp.Tenants)
	if per == 0 {
		return nil, fmt.Errorf("fleet: device too small for %d tenants", sp.Tenants)
	}
	for i := 0; i < sp.Tenants; i++ {
		if _, err := dev.AddNamespace(per, sp.MaxIOPS); err != nil {
			return nil, err
		}
	}
	if sp.Guard != nil {
		dev.AttachGuard(guard.New(*sp.Guard))
	}
	return &BuiltDevice{
		Device:      dev,
		Injector:    inj,
		PerNS:       per,
		ProfileName: dcfg.Profile.Name,
	}, nil
}
