package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/guard"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// mitigationResult is one row of the §5 table.
type mitigationResult struct {
	Name      string
	Flips     uint64
	Corrected uint64
	Observed  bool   // attacker-visible translation corruption
	Outcome   string // summary
}

// mitigationProbe is one §5 table row specification: a config mutation
// plus the hammer pattern probing it. Each probe builds its own testbed
// in its own world, so probes are independent trials for the parallel
// engine.
type mitigationProbe struct {
	name    string
	mutate  func(*cloud.Config)
	pattern attack.Pattern
}

// mitigationProbes returns the §5 probe matrix in table order.
func mitigationProbes() []mitigationProbe {
	gcfg := guard.DefaultConfig()
	double := attack.DoublePattern()
	synced := double
	synced.SyncDecoy = true
	evicting := double
	evicting.CacheEvictLines = 1024
	return []mitigationProbe{
		{"none (baseline)", nil, double},
		{"ECC (SEC-DED per 64-bit word)", func(c *cloud.Config) {
			c.Device.DRAM.ECC = true
		}, double},
		{"TRR (sampler=1)", func(c *cloud.Config) {
			c.Device.DRAM.TRR = dram.DefaultTRR()
		}, double},
		{"TRR vs synchronized decoys", func(c *cloud.Config) {
			c.Device.DRAM.TRR = dram.DefaultTRR()
		}, synced},
		{"PARA p=0.02", func(c *cloud.Config) {
			c.Device.DRAM.PARA = 0.02
		}, double},
		{"2x refresh rate (32 ms window)", func(c *cloud.Config) {
			c.Device.DRAM.RefreshWindow = 32 * sim.Millisecond
		}, double},
		{"FTL CPU cache for L2P", func(c *cloud.Config) {
			c.Device.FTL = &ftl.Config{Cache: ftl.CacheConfig{Enabled: true, Lines: 1024}}
		}, double},
		{"FTL cache vs eviction-aware reads", func(c *cloud.Config) {
			c.Device.FTL = &ftl.Config{Cache: ftl.CacheConfig{Enabled: true, Lines: 1024}}
		}, evicting},
		{"I/O rate limit (100K IOPS/ns)", func(c *cloud.Config) {
			c.Device.MaxIOPS = 100_000
		}, double},
		{"hammer guard (ours: detect+throttle)", func(c *cloud.Config) {
			c.Device.Guard = &gcfg
		}, double},
	}
}

// Mitigations5 evaluates the paper's §5 mitigation candidates against a
// standardized attack probe: offline analysis, spray legality, achievable
// rate, then a templated double-sided hammer over the attacker's own
// partition with corruption detection through the production read path.
// The probes fan across the trial engine and print in table order.
func Mitigations5(w io.Writer, opt Options) error {
	section(w, "§5", "mitigations")
	probes := mitigationProbes()
	rows, err := runTrialsObs(opt, len(probes), func(i int, reg *obs.Registry) (mitigationResult, error) {
		p := probes[i]
		r, err := probeMitigation(p.name, p.mutate, p.pattern, opt.Quick, reg)
		if err != nil {
			return mitigationResult{}, fmt.Errorf("experiments: mitigation %q: %w", p.name, err)
		}
		return r, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-34s %8s %10s %10s  %s\n", "mitigation", "flips", "corrected", "observed", "outcome")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %8d %10d %10v  %s\n", r.Name, r.Flips, r.Corrected, r.Observed, r.Outcome)
	}

	// Structural mitigations that stop earlier stages.
	fmt.Fprintln(w)
	hashedCfg := quickTestbedConfig(0x55)
	hashedCfg.Device.FTL = &ftl.Config{Hashed: true, HashKey: 0xC0FFEE}
	hashedCfg.Obs = opt.Obs
	tb, err := cloud.NewTestbed(hashedCfg)
	if err != nil {
		return err
	}
	if _, err := attack.Analyze(tb.Device, tb.AttackerNS, attack.AnalyzeOptions{VictimNSID: tb.VictimNS.ID}); err != nil {
		fmt.Fprintf(w, "hashed/keyed L2P:     offline layout analysis fails (%v)\n", err)
	} else {
		return fmt.Errorf("experiments: hashed L2P did not block analysis")
	}

	fiCfg := quickTestbedConfig(0x56)
	fiCfg.ForbidIndirect = true
	fiCfg.Obs = opt.Obs
	tb2, err := cloud.NewTestbed(fiCfg)
	if err != nil {
		return err
	}
	s := attack.NewSprayer(tb2.VictimFS, cloud.AttackerCred, "/home/attacker")
	if _, err := s.Spray(2, 4, uint32(tb2.VictimFS.DataStart())); err != nil {
		fmt.Fprintf(w, "extent-only ext4:     spraying fails (%v)\n", err)
	} else {
		return fmt.Errorf("experiments: extent-only policy did not block spraying")
	}
	fmt.Fprintf(w, "\nnote: checksummed extent trees also turn redirects into detected errors\n")
	fmt.Fprintf(w, "      (see the ext4 extent checksum tests), matching the paper's analysis\n")
	return nil
}

// probeMitigation runs the standardized probe under one configuration.
// reg (may be nil) observes the probe's testbed.
func probeMitigation(name string, mutate func(*cloud.Config), pat attack.Pattern, quick bool, reg *obs.Registry) (mitigationResult, error) {
	cfg := quickTestbedConfig(0x50)
	cfg.Device.Amplify = 1
	// Single-tenant mapping so the probe can observe its own victim rows.
	cfg.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.Obs = reg
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		return mitigationResult{}, err
	}
	bindings, err := attack.Analyze(tb.Device, tb.AttackerNS, attack.AnalyzeOptions{})
	if err != nil {
		return mitigationResult{}, err
	}
	if pat.SyncDecoy {
		withDecoys := bindings[:0]
		for _, b := range bindings {
			if b.HasDecoy {
				withDecoys = append(withDecoys, b)
			}
		}
		bindings = withDecoys
		if len(bindings) == 0 {
			return mitigationResult{}, fmt.Errorf("no plans with decoy rows")
		}
	}
	nPlans := 6
	if quick {
		nPlans = 4
	}
	if len(bindings) > nPlans {
		bindings = bindings[:nPlans]
	}
	pat.Iterations = int(attack.RequiredRate(tb.Device)*tb.DRAM.Config().RefreshWindow.Seconds()) * 2
	h := &attack.DeviceHammerer{Dev: tb.Device, NS: tb.AttackerNS, Path: nvme.PathDirect}
	results, err := attack.Template(h, bindings, pat)
	if err != nil {
		return mitigationResult{}, err
	}
	observed := false
	for _, r := range results {
		if r.Vulnerable {
			observed = true
		}
	}
	st := tb.DRAM.Stats()
	res := mitigationResult{
		Name:      name,
		Flips:     st.Flips,
		Corrected: st.ECCCorrected,
		Observed:  observed,
	}
	switch {
	case !observed && st.Flips == 0:
		res.Outcome = "attack blocked (no flips)"
	case !observed && st.ECCCorrected > 0:
		res.Outcome = "flips occur but are corrected"
	case !observed:
		res.Outcome = "flips occur but are not observable"
	default:
		res.Outcome = "ATTACK SUCCEEDS (silent corruption)"
	}
	return res, nil
}
