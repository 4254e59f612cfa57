package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/faults"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/victims"
)

// victimsSeed keeps every scenario on an identical device build; rows
// differ only in the victim stack and where the flip is aimed.
const victimsSeed = 0x51C715

// victimScenario is one row of the §5 scorecard: a victim stack, an
// aimed L2P flip (or none), and whether GC-forcing churn runs during
// the attack.
type victimScenario struct {
	name string
	kind string // "fs", "kv", "gc"
	// FS hardening knobs.
	journal, metaCksum bool
	// flip aims one deterministic faults.KindDRAMBitFlip: "none",
	// "data" (probe-file data block), "itable" (inode-table block),
	// "record" (KV record block), "canary" (GC canary block).
	flip  string
	churn bool
}

func victimScenarios() []victimScenario {
	return []victimScenario{
		{name: "ext4-plain    flip@data", kind: "fs", flip: "data"},
		{name: "ext4-plain    flip@itable", kind: "fs", flip: "itable"},
		{name: "ext4-hardened flip@data", kind: "fs", journal: true, metaCksum: true, flip: "data"},
		{name: "ext4-hardened flip@itable", kind: "fs", journal: true, metaCksum: true, flip: "itable"},
		{name: "kv-store      no flip", kind: "kv", flip: "none"},
		{name: "kv-store      flip@record", kind: "kv", flip: "record"},
		{name: "gc-canary     flip, quiet", kind: "gc", flip: "canary"},
		{name: "gc-canary     flip + churn", kind: "gc", flip: "canary", churn: true},
	}
}

// victimRow is one scenario's outcome.
type victimRow struct {
	Name                         string
	Injected                     uint64
	Checked, Corrupted, Remapped int
	Detected, Silent             int
	GCRuns, Moved                uint64
	Relocated                    int
	Verdict                      string
}

// Victims runs the victim scenario zoo: the three internal/victims
// stacks driven through the attack Pipeline on identical devices, each
// scenario with one precisely-aimed L2P entry flip, so the scorecard
// answers the two questions §5 leaves open — does a checksumming
// filesystem detect the flip or provably miss it, and does background
// GC reset the exposure or leave it standing (docs/VICTIMS.md).
func Victims(w io.Writer, opt Options) error {
	section(w, "VICTIMS", "victim scenario zoo: checksummed FS, KV store, GC interaction")
	scs := victimScenarios()
	rows, err := runTrialsObs(opt, len(scs), func(i int, reg *obs.Registry) (victimRow, error) {
		r, err := probeVictimScenario(scs[i], reg)
		if err != nil {
			return victimRow{}, fmt.Errorf("experiments: victim scenario %q: %w", scs[i].name, err)
		}
		return r, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-28s %4s %5s %7s %6s %4s %4s  %s\n",
		"scenario", "flip", "chkd", "corrupt", "remap", "det", "sil", "outcome")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %4d %5d %7d %6d %4d %4d  %s\n",
			r.Name, r.Injected, r.Checked, r.Corrupted, r.Remapped,
			r.Detected, r.Silent, r.Verdict)
	}

	fmt.Fprintf(w, "\n§5 Q1 — does a checksumming filesystem catch the flip?\n")
	fmt.Fprintf(w, "  inode-table translation:  %s\n", rows[3].Verdict)
	fmt.Fprintf(w, "  data-block translation:   %s (no metadata checksum covers it)\n", rows[2].Verdict)
	fmt.Fprintf(w, "  application framing (KV): %s\n", rows[5].Verdict)
	fmt.Fprintf(w, "§5 Q2 — does background GC reset the exposure?\n")
	fmt.Fprintf(w, "  quiet device: %s (gc_runs=%d)\n", rows[6].Verdict, rows[6].GCRuns)
	fmt.Fprintf(w, "  under churn:  %s (gc_runs=%d, moved=%d, relocated=%d)\n",
		rows[7].Verdict, rows[7].GCRuns, rows[7].Moved, rows[7].Relocated)
	return nil
}

// buildVictimsDevice assembles the two-tenant scenario device: tenant 1
// is the attacker, tenant 2 the victim. Small 1 KiB DRAM rows keep the
// L2P table spanning many rows (so triples exist in a compact table)
// while the flash stays small enough for churn to force GC within a
// scenario. The invulnerable profile removes organic weak-cell flips:
// every row's outcome is caused by its one aimed flip.
func buildVictimsDevice(reg *obs.Registry, plan *faults.Plan) (*fleet.BuiltDevice, error) {
	dcfg := dram.Config{
		Geometry: dram.Geometry{
			Channels: 1, DIMMs: 1, Ranks: 1,
			Banks: 4, RowsPerBank: 1 << 12, RowBytes: 1 << 10,
		},
		Timing:  dram.DefaultTiming(),
		Profile: dram.InvulnerableProfile(),
		Mapping: dram.MapperConfig{XorBank: true},
	}
	geom := nand.Geometry{
		Channels:      2,
		DiesPerChan:   2,
		PlanesPerDie:  2,
		BlocksPerPlan: 16,
		PagesPerBlock: 64,
		PageBytes:     4096,
	}
	return fleet.DeviceSpec{
		Tenants: 2,
		Amplify: 1,
		DRAM:    &dcfg,
		Flash:   &geom,
		Faults:  plan,
	}.Build(victimsSeed, reg)
}

// armThenInject re-arms the fault injector only after the victim's own
// setup writes are done: the aimed flip must land on a SETTLED entry
// (as a real mid-attack flip would), not be overwritten by arm-time
// traffic.
type armThenInject struct {
	attack.Victim
	inj *faults.Injector
}

func (a armThenInject) Arm(bs []attack.Binding) error {
	if err := a.Victim.Arm(bs); err != nil {
		return err
	}
	a.inj.Arm()
	return nil
}

// scoutTarget dry-runs a scenario's victim arm on a fault-free twin
// device to learn which LBA the flip should aim at and the DRAM address
// of that LBA's L2P entry. Victim layouts and entry addresses are
// deterministic for equal spec and seed, so the twin's answer holds on
// the real build.
func scoutTarget(sc victimScenario) (ftl.LBA, uint64, error) {
	bd, err := buildVictimsDevice(nil, nil)
	if err != nil {
		return 0, 0, err
	}
	dev := bd.Device
	var ns *nvme.Namespace
	var lba ftl.LBA
	switch sc.kind {
	case "fs":
		ns, _ = dev.NamespaceByID(2)
		v := &victims.FSVictim{Dev: dev, NS: ns, Journal: sc.journal, MetaChecksum: sc.metaCksum}
		if err := v.Arm(nil); err != nil {
			return 0, 0, err
		}
		if sc.flip == "itable" {
			lba, err = v.MetadataLBA()
		} else {
			lba, err = v.DataLBA()
		}
	case "kv":
		ns, _ = dev.NamespaceByID(2)
		v := &victims.KVVictim{Dev: dev, NS: ns}
		if err := v.Arm(nil); err != nil {
			return 0, 0, err
		}
		lba, err = v.TargetLBA()
	case "gc":
		// The GC victim shares the attacker's partition (same-partition
		// canaries, as in the §3 own-partition demo); its watched set
		// derives from the same layout analysis the pipeline's allocator
		// performs, so the scout and the real run see identical lines.
		ns, _ = dev.NamespaceByID(1)
		bindings, err := attack.Analyze(dev, ns, attack.AnalyzeOptions{Sides: 2})
		if err != nil {
			return 0, 0, err
		}
		v := &victims.GCVictim{Dev: dev, NS: ns}
		if err := v.Arm(bindings[:1]); err != nil {
			return 0, 0, err
		}
		lba = v.Watched()[3]
	default:
		return 0, 0, fmt.Errorf("unknown victim kind %q", sc.kind)
	}
	if err != nil {
		return 0, 0, err
	}
	addr, err := dev.EntryAddrOf(ns, lba)
	return lba, addr, err
}

// victimFlipPlan aims exactly one DRAM bit flip at the L2P entry at
// addr: the first armed load of that entry flips translation bit 4,
// redirecting it by 16 physical pages.
func victimFlipPlan(addr uint64) *faults.Plan {
	return &faults.Plan{Rules: []faults.Rule{{
		Kind:   faults.KindDRAMBitFlip,
		Every:  1,
		Count:  1,
		Region: faults.Region{Start: addr, End: addr + ftl.EntryBytes},
	}}}
}

// probeVictimScenario runs one scenario end to end through the attack
// pipeline and classifies the outcome.
func probeVictimScenario(sc victimScenario, reg *obs.Registry) (victimRow, error) {
	var plan *faults.Plan
	var target ftl.LBA
	if sc.flip != "none" {
		var addr uint64
		var err error
		if target, addr, err = scoutTarget(sc); err != nil {
			return victimRow{}, err
		}
		plan = victimFlipPlan(addr)
	}

	bd, err := buildVictimsDevice(reg, plan)
	if err != nil {
		return victimRow{}, err
	}
	dev := bd.Device
	// Setup (allocation, mkfs, victim fill) runs fault-free; the flip
	// arms together with the victim (armThenInject), firing on the first
	// post-arm load of the target entry.
	bd.Injector.Disarm()

	attackNS, ok := dev.NamespaceByID(1)
	if !ok {
		return victimRow{}, fmt.Errorf("device has no namespace 1")
	}
	victimNS, ok := dev.NamespaceByID(2)
	if !ok {
		return victimRow{}, fmt.Errorf("device has no namespace 2")
	}
	pat := attack.Pattern{Spec: "double", Sides: 2, Iterations: 64}
	pipe := &attack.Pipeline{
		Dev: dev, NS: attackNS, Path: nvme.PathDirect,
		Alloc:    &attack.ContiguousAllocator{MaxBindings: 1},
		Hammerer: &attack.DeviceHammerer{Dev: dev, NS: attackNS, Path: nvme.PathDirect},
		Obs:      reg,
	}

	row := victimRow{Name: sc.name}
	var detail func()
	switch sc.kind {
	case "fs":
		v := &victims.FSVictim{Dev: dev, NS: victimNS,
			Journal: sc.journal, MetaChecksum: sc.metaCksum, Obs: reg}
		pipe.Victim = armThenInject{v, bd.Injector}
		detail = func() {
			d := v.Detail()
			row.Detected, row.Silent = d.Detected, d.Silent
			switch {
			case d.Silent > 0:
				row.Verdict = "SILENT corruption"
			case d.Detected > 0 || d.FsckChecksumOnly:
				row.Verdict = "DETECTED (checksum)"
			default:
				row.Verdict = "clean"
			}
		}
	case "kv":
		v := &victims.KVVictim{Dev: dev, NS: victimNS, Obs: reg}
		pipe.Victim = armThenInject{v, bd.Injector}
		detail = func() {
			d := v.Detail()
			row.Detected = d.Lost + d.Misdirected + d.DeviceErrors
			row.Silent = d.Silent
			switch {
			case d.Silent > 0:
				row.Verdict = "SILENT corruption"
			case d.Misdirected > 0:
				row.Verdict = "DETECTED (record framing)"
			case d.Lost+d.DeviceErrors > 0:
				row.Verdict = "DETECTED (key lost)"
			default:
				row.Verdict = "clean"
			}
		}
	case "gc":
		v := &victims.GCVictim{Dev: dev, NS: attackNS, NoInterleave: !sc.churn, Obs: reg}
		pipe.Victim = armThenInject{v, bd.Injector}
		if sc.churn {
			// Cold data fills the attacker tenant around the canaries:
			// once churn depletes the free pool, the victim's mostly-dead
			// canary blocks are the emptiest candidates and GC must
			// relocate them (the victims package tests pin this
			// economics). The fill happens before Run, so the allocator
			// trims and the canary writes land on top of it.
			buf := make([]byte, dev.BlockBytes())
			for lba := ftl.LBA(0); uint64(lba) < attackNS.NumLBAs; lba++ {
				if err := dev.Write(attackNS, lba, buf, nvme.PathDirect); err != nil {
					return victimRow{}, err
				}
			}
			pipe.Hammerer = &victims.ChurnHammerer{
				Inner:   pipe.Hammerer,
				Dev:     dev,
				ChurnNS: victimNS,
				Rounds:  4, Writes: 1200, Span: 3500,
				PrimeNS: attackNS,
				Prime:   []ftl.LBA{target},
			}
		}
		detail = func() {
			d := v.Detail()
			row.Detected, row.Silent = d.Detected, d.Silent
			row.GCRuns, row.Moved, row.Relocated = d.GCRuns, d.PagesMoved, d.Relocated
			switch {
			case row.Corrupted == 0 && d.Relocated > 0:
				row.Verdict = "exposure RESET (GC rewrote entry)"
			case row.Corrupted > 0 && d.PagesMoved > 0:
				row.Verdict = "exposure AMPLIFIED (flip outlived GC)"
			case row.Corrupted > 0:
				row.Verdict = "flip persists (no GC in window)"
			default:
				row.Verdict = "clean"
			}
		}
	default:
		return victimRow{}, fmt.Errorf("unknown victim kind %q", sc.kind)
	}

	res, err := pipe.Run(pat)
	if err != nil {
		return victimRow{}, err
	}
	row.Injected = dev.FTL().Stats().InjectedFlips
	row.Checked = res.Victim.Checked
	row.Corrupted = res.Victim.Corrupted
	row.Remapped = res.Victim.Remapped
	detail()
	return row, nil
}
