package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// mitigationResult is one row of the §5 table.
type mitigationResult struct {
	Name      string
	Flips     uint64
	Corrected uint64
	Observed  bool   // attacker-visible translation corruption
	Outcome   string // summary
}

// mitigationProbe is one §5 table row: a row label, the mitigation as
// cloud.Config.Mitigate (ftlhammer -mitigation) names it, and the hammer
// pattern probing it. Each probe builds its own testbed in its own world,
// so probes are independent trials for the parallel engine.
type mitigationProbe struct {
	name    string
	spec    string
	pattern attack.Pattern
}

// mitigationProbes returns the §5 probe matrix in table order.
func mitigationProbes() []mitigationProbe {
	double := attack.DoublePattern()
	synced := double
	synced.SyncDecoy = true
	evicting := double
	evicting.CacheEvictLines = 1024
	return []mitigationProbe{
		{"none (baseline)", "none", double},
		{"ECC (SEC-DED per 64-bit word)", "ecc", double},
		{"TRR (sampler=1)", "trr", double},
		{"TRR vs synchronized decoys", "trr", synced},
		{"PARA p=0.02", "para", double},
		{"2x refresh rate (32 ms window)", "refresh2x", double},
		{"FTL CPU cache for L2P", "cache", double},
		{"FTL cache vs eviction-aware reads", "cache", evicting},
		{"I/O rate limit (100K IOPS/ns)", "ratelimit", double},
		{"hammer guard (ours: detect+throttle)", "guard", double},
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
		r, err := probeMitigation(p, opt.Quick, reg)
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

// probeMitigation runs the standardized probe under one mitigation.
// reg (may be nil) observes the probe's testbed.
func probeMitigation(p mitigationProbe, quick bool, reg *obs.Registry) (mitigationResult, error) {
	cfg := probeTestbedConfig(0x50)
	if err := cfg.Mitigate(p.spec); err != nil {
		return mitigationResult{}, err
	}
	cfg.Obs = reg
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		return mitigationResult{}, err
	}
	observed, err := templateProbe(tb, p.pattern, quick)
	if err != nil {
		return mitigationResult{}, err
	}
	st := tb.DRAM.Stats()
	res := mitigationResult{
		Name:      p.name,
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

// probeTestbedConfig is the standardized probe's testbed, shared by the
// §5 and faults tables: the quick testbed at x1 amplification with the
// single-tenant bank-XOR mapping, so the probe can observe its own victim
// rows.
func probeTestbedConfig(seed uint64) cloud.Config {
	cfg := quickTestbedConfig(seed)
	cfg.Device.Amplify = 1
	cfg.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
	return cfg
}

// templateProbe is the standardized attack probe: offline analysis, then
// attack.Template with pat over the first 6 own-partition plans (4 in
// quick mode; a SyncDecoy pattern only takes plans with a decoy row), at
// twice the refresh window's hammer count. It reports whether any plan
// showed attacker-visible translation corruption.
func templateProbe(tb *cloud.Testbed, pat attack.Pattern, quick bool) (bool, error) {
	bindings, err := attack.Analyze(tb.Device, tb.AttackerNS, attack.AnalyzeOptions{})
	if err != nil {
		return false, err
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
			return false, fmt.Errorf("no plans with decoy rows")
		}
	}
	nPlans := 6
	if quick {
		nPlans = 4
	}
	if len(bindings) > nPlans {
		bindings = bindings[:nPlans]
	}
	pat.Iterations = attack.HammerBudget(tb.Device, 2)
	h := &attack.DeviceHammerer{Dev: tb.Device, NS: tb.AttackerNS, Path: nvme.PathDirect}
	results, err := attack.Template(h, bindings, pat)
	if err != nil {
		return false, err
	}
	for _, r := range results {
		if r.Vulnerable {
			return true, nil
		}
	}
	return false, nil
}
