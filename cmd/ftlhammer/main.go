// Command ftlhammer runs a configurable FTL-rowhammer attack campaign
// against the emulated multi-tenant SSD and reports the outcome.
//
// Example:
//
//	ftlhammer -profile testbed -cycles 20 -spray 3072 -amplify 5
//	ftlhammer -profile weak -mitigation ecc
//	ftlhammer -profile weak -mitigation trr -sync-decoys
//	ftlhammer -profile weak -mitigation trr:1 -pattern many:4
//	ftlhammer -profile weak -metrics table -trace run.jsonl
//	ftlhammer -profile weak -fault-rate 0.01 -v
package main

import (
	"flag"
	"fmt"
	"os"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/stats"
	"ftlhammer/internal/victims"
)

func main() {
	var (
		profile    = flag.String("profile", "weak", "DRAM profile: testbed | weak | invulnerable")
		cycles     = flag.Int("cycles", 12, "maximum attack cycles")
		sprayFiles = flag.Int("spray", 3072, "spray files per cycle")
		targets    = flag.Int("targets", 64, "pointer targets per malicious block")
		triples    = flag.Int("triples", 8, "triples hammered per cycle")
		amplify    = flag.Int("amplify", 1, "firmware hammers per I/O (paper testbed: 5)")
		mitigation = flag.String("mitigation", "none", cloud.MitigationNames)
		syncDecoys = flag.Bool("sync-decoys", false, "REF-synchronized decoy reads (TRR bypass)")
		pattern    = flag.String("pattern", "", "hammer pattern: single | double | one-location | many:<n> | fuzzed:<seed> (empty: classic double-sided)")
		victim     = flag.String("victim", "", "hammer a software victim instead of the leak campaign: fs | fs-hardened | kv | gc | gc-churn (docs/VICTIMS.md)")
		iters      = flag.Int("iterations", 24000, "pattern iterations for -victim runs")
		hunt       = flag.String("hunt", "victim-data-block-", "content marker to hunt for")
		seed       = flag.Uint64("seed", 0xBEEF, "simulation seed")
		verbose    = flag.Bool("v", false, "print device statistics")
		metrics    = flag.String("metrics", "", "end-of-run metric dump: 'table' or 'json'")
		trace      = flag.String("trace", "", "write the event trace to this JSONL file")
		faultRate  = flag.Float64("fault-rate", 0, "inject device faults at this per-op probability (standard mix, see docs/FAULTS.md)")
		robust     = flag.Bool("robust", false, "enable the NVMe retry/timeout/degradation policy (implied by -fault-rate)")
	)
	flag.Parse()
	reg, err := obs.FlagRegistry(*metrics, *trace)
	if err != nil {
		fatal(err)
	}

	cfg, err := testbedConfig(*profile, *amplify, *seed)
	if err != nil {
		fatal(err)
	}
	cfg.Device.FaultRate = *faultRate
	cfg.Device.Robust = *robust
	cfg.Obs = reg
	if err := cfg.Mitigate(*mitigation); err != nil {
		fatal(err)
	}

	fmt.Printf("building testbed: %s, amplification x%d, mitigation %s\n",
		cfg.Device.DRAM.Profile.Name, *amplify, *mitigation)
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		fatal(err)
	}
	id := tb.Device.Identify()
	fmt.Printf("device: %s — %.1f GiB, %d namespaces, %s L2P\n",
		id.Model, float64(id.Capacity)/(1<<30), id.Namespaces, id.L2PKind)

	pat := attack.DoublePattern()
	if *pattern != "" {
		if pat, err = attack.ParsePattern(*pattern); err != nil {
			fatal(err)
		}
		fmt.Printf("hammer pattern: %s\n", pat)
	}
	// -sync-decoys composes: it adds REF synchronization to whatever
	// shape -pattern selected.
	if *syncDecoys {
		pat.SyncDecoy = true
	}
	if *victim != "" {
		pat.Iterations = *iters
		if err := runVictim(tb, *victim, pat, reg); err != nil {
			fatal(err)
		}
	} else if err := runCampaign(tb, attack.CampaignConfig{
		SprayFiles:      *sprayFiles,
		TargetsPerFile:  *targets,
		MaxCycles:       *cycles,
		Pattern:         pat,
		TriplesPerCycle: *triples,
		Hunt:            *hunt,
	}); err != nil {
		fatal(err)
	}
	if *robust || *faultRate > 0 {
		rs := tb.Device.RobustStats()
		fmt.Printf("robustness: retries=%d timeouts=%d dropped=%d mediaErrs=%d failedCmds=%d readonly(now=%v entries=%d rejects=%d)\n",
			rs.Retries, rs.Timeouts, rs.DroppedCompletions, rs.MediaErrors,
			rs.TimedOutCmds+rs.AbortedCmds+rs.MediaFailedCmds,
			tb.Device.ReadOnly(), rs.ReadOnlyEntries, rs.ReadOnlyRejects)
	}
	if g := tb.Device.Guard(); g != nil {
		fmt.Printf("guard: attacker-ns violations=%d, victim-ns violations=%d\n",
			g.Violations(tb.AttackerNS.ID), g.Violations(tb.VictimNS.ID))
	}
	if *verbose && len(tb.DRAM.Flips()) > 1 {
		var gaps stats.Sample
		evs := tb.DRAM.Flips()
		for i := 1; i < len(evs); i++ {
			gaps.Add(evs[i].Time.Sub(evs[i-1].Time).Seconds())
		}
		fmt.Printf("inter-flip interval: median %.3fs p90 %.3fs max %.3fs (virtual)\n",
			gaps.Median(), gaps.Percentile(90), gaps.Max())
	}
	if *verbose {
		ds := tb.DRAM.Stats()
		fmt.Printf("\nDRAM: activations=%d rowHits=%d flips=%d TRR=%d PARA=%d eccCorrected=%d eccFatal=%d\n",
			ds.Activations, ds.RowHits, ds.Flips, ds.TRRRefreshes, ds.PARARefreshes, ds.ECCCorrected, ds.ECCUncorrected)
		fs := tb.FTL.Stats()
		fmt.Printf("FTL: hostReads=%d hostWrites=%d trims=%d gcRuns=%d moved=%d corruptReads=%d WA=%.2f\n",
			fs.HostReads, fs.HostWrites, fs.Trims, fs.GCRuns, fs.GCPagesMoved, fs.CorruptReads, tb.FTL.WriteAmplification())
		ns := tb.Flash.Stats()
		fmt.Printf("NAND: reads=%d programs=%d erases=%d wearMax=%d\n",
			ns.Reads, ns.Programs, ns.Erases, ns.WearMax)
	}
	if err := obs.DumpExit(os.Stdout, reg, *metrics, *trace); err != nil {
		fatal(err)
	}
}

// runCampaign executes the classic §3/§4 leak campaign and prints its
// report. A campaign that stops on an error prints the report so far
// and returns the error.
func runCampaign(tb *cloud.Testbed, ccfg attack.CampaignConfig) error {
	camp, err := attack.NewCampaign(tb, ccfg)
	if err != nil {
		return err
	}
	rep, err := camp.Run()
	fmt.Printf("\ncycles:          %d\n", rep.Cycles)
	fmt.Printf("spray files:     %d\n", rep.SpraysCreated)
	fmt.Printf("hammer reads:    %d\n", rep.HammerReads)
	fmt.Printf("bitflips:        %d\n", rep.FlipsInduced)
	fmt.Printf("leaks detected:  %d\n", rep.LeaksDetected)
	fmt.Printf("blocks dumped:   %d\n", rep.BlocksDumped)
	fmt.Printf("virtual elapsed: %v\n", rep.Elapsed)
	if err != nil {
		return fmt.Errorf("campaign stopped: %w", err)
	}
	if rep.SecretFound {
		excerpt := rep.SecretContent
		if len(excerpt) > 40 {
			excerpt = excerpt[:40]
		}
		fmt.Printf("RESULT: victim data LEAKED: %q...\n", excerpt)
	} else {
		fmt.Println("RESULT: no leak (attack unsuccessful under this configuration)")
	}
	return nil
}

// runVictim drives one victim scenario from the internal/victims zoo
// through the attack pipeline on the testbed device: arm the victim
// stack in the victim tenant, hammer the pattern over cross-partition
// bindings (attacker rows flanking victim-owned translation rows, §4.2),
// and report what the software above the device observed
// (docs/VICTIMS.md).
func runVictim(tb *cloud.Testbed, kind string, pat attack.Pattern, reg *obs.Registry) error {
	dev := tb.Device
	pipe := &attack.Pipeline{
		Dev: dev, NS: tb.AttackerNS, Path: nvme.PathDirect,
		Alloc:    &attack.ContiguousAllocator{VictimNSID: tb.VictimNS.ID, MaxBindings: 4},
		Hammerer: &attack.DeviceHammerer{Dev: dev, NS: tb.AttackerNS, Path: nvme.PathDirect},
		Obs:      reg,
	}
	var detail func() string
	switch kind {
	case "fs", "fs-hardened":
		v := &victims.FSVictim{
			Dev: dev, NS: tb.VictimNS, Path: nvme.PathDirect,
			Journal: kind == "fs-hardened", MetaChecksum: kind == "fs-hardened",
			Obs: reg,
		}
		pipe.Victim = v
		detail = func() string { return v.Detail().String() }
	case "kv":
		v := &victims.KVVictim{Dev: dev, NS: tb.VictimNS, Path: nvme.PathDirect, Obs: reg}
		pipe.Victim = v
		detail = func() string { return v.Detail().String() }
	case "gc", "gc-churn":
		v := &victims.GCVictim{
			Dev: dev, NS: tb.VictimNS, Path: nvme.PathDirect,
			MaxLines: 2, NoInterleave: kind == "gc", Obs: reg,
		}
		pipe.Victim = v
		if kind == "gc-churn" {
			pipe.Hammerer = &victims.ChurnHammerer{
				Inner: pipe.Hammerer, Dev: dev,
				ChurnNS: tb.AttackerNS, Path: nvme.PathDirect,
			}
		}
		detail = func() string { return v.Detail().String() }
	default:
		return fmt.Errorf("unknown victim %q (want fs | fs-hardened | kv | gc | gc-churn)", kind)
	}
	fmt.Printf("victim scenario: %s, pattern %s x%d\n", kind, pat, pat.Iterations)
	res, err := pipe.Run(pat)
	if err != nil {
		return err
	}
	fmt.Printf("\nbindings:   %d hammered of %d\n", res.Hammered, res.Bindings)
	fmt.Printf("bitflips:   %d (mitigation refreshes %d, guard blacklists %d)\n",
		res.Flips, res.MitRefreshes, res.Blacklists)
	fmt.Printf("victim:     checked=%d corrupted=%d remapped=%d\n",
		res.Victim.Checked, res.Victim.Corrupted, res.Victim.Remapped)
	fmt.Printf("detail:     %s\n", detail())
	if res.Victim.Corrupted > 0 {
		fmt.Println("RESULT: victim observed CORRUPTION")
	} else {
		fmt.Println("RESULT: victim intact under this configuration")
	}
	return nil
}

// testbedConfig describes the testbed for one -profile: the profile's
// preset DRAM config and flash geometry, held as overrides so that
// -mitigation can change them.
func testbedConfig(profile string, amplify int, seed uint64) (cloud.Config, error) {
	dcfg, geom, err := fleet.Preset(profile)
	if err != nil {
		return cloud.Config{}, err
	}
	return cloud.Config{
		Device: fleet.DeviceSpec{
			Profile: profile,
			Amplify: amplify,
			DRAM:    &dcfg,
			Flash:   &geom,
		},
		VictimFillBlocks: 6144,
		Seed:             seed,
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ftlhammer:", err)
	os.Exit(1)
}
