package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/guard"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// defenseSpec is one row of the guard-vs-mitigation sweep: a guard
// configuration (nil = no guard) and an in-DRAM mitigation spec
// (dram.ParseMitigation syntax), evaluated under identical multi-tenant
// traffic.
type defenseSpec struct {
	name  string
	guard *guard.Config
	mit   string
}

// defenseSpecs returns the sweep in table order: undefended baseline,
// the firmware-side Bloom guard (enforcing and detect-only), then the
// in-DRAM mitigation zoo.
func defenseSpecs() []defenseSpec {
	enforce := guard.DefaultConfig()
	// The testbed firmware amplifies 5 lookups per IO, so a row heats 5x
	// faster than commands arrive; halving the threshold keeps the
	// penalty self-renewing while throttled (the filter must be able to
	// reach the threshold again within its own window at the capped
	// rate, or the attack gets a free burst every penalty expiry).
	enforce.RowThreshold = 4096
	detect := enforce
	detect.Enforce = false
	return []defenseSpec{
		{"none (baseline)", nil, "none"},
		{"guard (bloom, enforce)", &enforce, "none"},
		{"guard (bloom, detect-only)", &detect, "none"},
		{"TRR (sampler=1)", nil, "trr:1"},
		{"TRR (sampler=4)", nil, "trr:4"},
		{"PARA (p=0.02)", nil, "para:0.02"},
		{"2x refresh (32 ms window)", nil, "refresh:2"},
	}
}

// defenseResult is one row of the output table.
type defenseResult struct {
	Name         string
	Flips        uint64
	Remaps       int
	Blacklists   uint64
	MitRefreshes uint64
	BenignOps    uint64
	BenignNsOp   uint64
	Footprint    int
	Outcome      string
}

// Defenses sweeps every defense against the same co-tenant attack under
// hammerload-style background traffic: a 4-tenant device where tenant 1
// runs the §3.1 trimmed-LBA double-sided hammer against its own
// partition while tenants 2-4 issue uniform reads over private working
// sets. Each row reports attack effectiveness (flips, victim L2P
// remaps), the defense's own activity (guard blacklists, mitigation
// neighbour refreshes) and what the defense costs the bystanders
// (benign mean latency in virtual ns/op). Every defense sees identical
// seeds, so rows differ only in the defense (docs/DEFENSES.md).
func Defenses(w io.Writer, opt Options) error {
	section(w, "DEFENSES", "guard vs in-DRAM mitigation zoo under multi-tenant load")
	specs := defenseSpecs()
	rows, err := runTrialsObs(opt, len(specs), func(i int, reg *obs.Registry) (defenseResult, error) {
		r, err := probeDefense(specs[i], opt.Quick, reg)
		if err != nil {
			return defenseResult{}, fmt.Errorf("experiments: defense %q: %w", specs[i].name, err)
		}
		return r, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-28s %6s %7s %7s %9s %11s %12s  %s\n",
		"defense", "flips", "remaps", "blists", "mit_refs", "benign_ops", "benign_ns/op", "outcome")
	var footprint int
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %6d %7d %7d %9d %11d %12d  %s\n",
			r.Name, r.Flips, r.Remaps, r.Blacklists, r.MitRefreshes,
			r.BenignOps, r.BenignNsOp, r.Outcome)
		if r.Footprint > 0 {
			footprint = r.Footprint
		}
	}
	if footprint > 0 {
		fmt.Fprintf(w, "\nguard tracking state: %d bytes, constant for any tenant/row count\n", footprint)
		fmt.Fprintf(w, "(the pre-Bloom exact tracker kept one counter per hot row per namespace)\n")
	}
	return nil
}

// defenseSeed keeps every sweep row on identical weak-cell layouts and
// benign access sequences; rows differ only in the defense under test.
const defenseSeed = 0xDEFE5E

// probeDefense runs one defense row: build the 4-tenant device, start
// the benign tenants' working sets, then interleave the aggressor's
// hammer chunks with benign reads until the victim entries remap or the
// plan budget runs out.
func probeDefense(spec defenseSpec, quick bool, reg *obs.Registry) (defenseResult, error) {
	mc, err := dram.ParseMitigation(spec.mit)
	if err != nil {
		return defenseResult{}, err
	}
	dcfg := dram.Config{
		Geometry: dram.SSDGeometry(),
		Profile: dram.Profile{
			Name:            "scaled testbed DDR3",
			HCfirst:         24000,
			ThresholdSigma:  0.1,
			WeakCellsPerRow: 2.0,
		}.WithMitigation(mc),
		// XorBank-only mapping (no row twist), like the mitig probe: the
		// aggressor hammers its own quarter of the device, which needs
		// own-partition triples to exist under the mapping.
		Mapping: dram.MapperConfig{XorBank: true},
	}
	// 4x the quick-testbed flash: with four tenants each quarter must
	// still span enough DRAM rows per bank for same-owner triples.
	geom := nand.Geometry{
		Channels:      4,
		DiesPerChan:   2,
		PlanesPerDie:  2,
		BlocksPerPlan: 128,
		PagesPerBlock: 256,
		PageBytes:     4096,
	}
	sp := fleet.DeviceSpec{
		Tenants: 4,
		Amplify: 5,
		DRAM:    &dcfg,
		Flash:   &geom,
		Guard:   spec.guard,
	}
	bd, err := sp.Build(defenseSeed, reg)
	if err != nil {
		return defenseResult{}, err
	}
	dev := bd.Device

	aggNS, ok := dev.NamespaceByID(1)
	if !ok {
		return defenseResult{}, fmt.Errorf("no aggressor namespace")
	}
	type benign struct {
		ns  *nvme.Namespace
		rng *sim.RNG
	}
	const workingSet = 128
	var tenants []benign
	buf := make([]byte, dev.FTL().BlockBytes())
	for id := 2; id <= 4; id++ {
		ns, ok := dev.NamespaceByID(id)
		if !ok {
			return defenseResult{}, fmt.Errorf("no namespace %d", id)
		}
		// Private working set: hammerload-style uniform reads need
		// populated translations to look up.
		for i := ftl.LBA(0); i < workingSet; i++ {
			if err := dev.Write(ns, i, buf, nvme.PathDirect); err != nil {
				return defenseResult{}, err
			}
		}
		tenants = append(tenants, benign{ns: ns, rng: sim.NewRNG(defenseSeed ^ uint64(id)<<16)})
	}
	clk := dev.Clock()
	var benignOps, benignNs uint64
	benignTick := func() error {
		for _, t := range tenants {
			lba := ftl.LBA(t.rng.Uint64n(workingSet))
			start := clk.Now()
			if _, err := dev.Read(t.ns, lba, buf, nvme.PathDirect); err != nil {
				return err
			}
			benignOps++
			benignNs += uint64(clk.Now().Sub(start))
		}
		return nil
	}

	bindings, err := attack.Analyze(dev, aggNS, attack.AnalyzeOptions{})
	if err != nil {
		return defenseResult{}, err
	}
	maxPlans := 6
	if quick {
		maxPlans = 3
	}
	if len(bindings) > maxPlans {
		bindings = bindings[:maxPlans]
	}
	budget := int(attack.RequiredRate(dev)*dev.DRAM().Config().RefreshWindow.Seconds()) * 2

	// Chunked hammering: 64 aggressor pairs, then one benign read per
	// bystander tenant, repeated — the attack and the background load
	// share the device the way co-tenants actually would.
	const chunk = 64
	h := &attack.DeviceHammerer{Dev: dev, NS: aggNS, Path: nvme.PathDirect}
	pat := attack.DoublePattern()
	remaps := 0
	for _, b := range bindings {
		// Populate and snapshot every entry of the victim lines, or
		// most flips land on unwatched entries.
		if _, err := attack.PrepareVictimLines(dev, aggNS, b); err != nil {
			return defenseResult{}, err
		}
		before := attack.SnapshotVictimLines(dev.FTL(), b)
		fast, err := attack.PinAndTrim(dev, aggNS, nvme.PathDirect, b)
		if err != nil {
			return defenseResult{}, err
		}
		for done := 0; done < budget; done += chunk {
			pat.Iterations = chunk
			if left := budget - done; left < chunk {
				pat.Iterations = left
			}
			if err := h.Hammer(fast, pat); err != nil {
				return defenseResult{}, err
			}
			if err := benignTick(); err != nil {
				return defenseResult{}, err
			}
		}
		remaps += len(before.Remaps(dev.FTL()))
		if remaps > 0 {
			break
		}
	}

	st := dev.DRAM().Stats()
	res := defenseResult{
		Name:         spec.name,
		Flips:        st.Flips,
		Remaps:       remaps,
		MitRefreshes: st.TRRRefreshes + st.PARARefreshes,
		BenignOps:    benignOps,
	}
	if benignOps > 0 {
		res.BenignNsOp = benignNs / benignOps
	}
	if g := dev.Guard(); g != nil {
		res.Blacklists = g.Stats().Blacklists
		res.Footprint = g.FootprintBytes()
	}
	switch {
	case spec.guard != nil && !spec.guard.Enforce && res.Blacklists > 0 &&
		(remaps > 0 || res.Flips > 0):
		res.Outcome = "detected but not stopped (detect-only)"
	case remaps > 0:
		res.Outcome = "ATTACK SUCCEEDS (L2P remapped)"
	case res.Flips > 0:
		res.Outcome = "flips occur but no victim entry remapped"
	case spec.guard != nil && spec.guard.Enforce && res.Blacklists > 0:
		res.Outcome = "attack starved (throttled below HCfirst)"
	default:
		res.Outcome = "attack blocked (no flips)"
	}
	return res, nil
}
