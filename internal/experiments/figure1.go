package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/nvme"
)

// Figure1 reproduces the paper's Figure 1: a two-sided FTL rowhammering
// attack in the single-tenant setting. After a sequential write setup, a
// read workload alternating between LBAs whose L2P entries live in the two
// aggressor rows flips a bit in the victim row, redirecting a logical
// block to a different physical address.
func Figure1(w io.Writer, opt Options) error {
	section(w, "Figure 1", "two-sided FTL rowhammering redirects an L2P entry")

	cfg := quickTestbedConfig(0xF1)
	if !opt.Quick {
		cfg = paperTestbedConfig(0xF1)
	}
	// Single-tenant: plain row mapping so same-owner triples exist.
	cfg.Device.DRAM.Mapping = dram.MapperConfig{XorBank: true}
	cfg.Device.Amplify = 1
	cfg.Obs = opt.Obs
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		return err
	}
	ns := tb.AttackerNS
	bindings, err := attack.Analyze(tb.Device, ns, attack.AnalyzeOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "offline analysis: %d candidate aggressor/victim row triples\n", len(bindings))

	// Setup phase: sequential writes populate the victim rows' L2P
	// entries, so the firmware allocates physical pages for them (the
	// Figure 1 "initial sequential write setup").
	prepared := 0
	for i, b := range bindings {
		if i >= 24 {
			break
		}
		n, err := attack.PrepareVictimLines(tb.Device, ns, b)
		if err != nil {
			return err
		}
		prepared += n
	}
	fmt.Fprintf(w, "setup: sequential writes populated %d L2P entries\n", prepared)

	h := &attack.DeviceHammerer{Dev: tb.Device, NS: ns, Path: nvme.PathDirect}
	pat := attack.DoublePattern()
	pat.Iterations = attack.HammerBudget(tb.Device, 2)
	maxPlans := 24
	if !opt.Quick {
		maxPlans = 64
	}
	// The hunt trims the two hammer LBAs so their reads skip flash and
	// run at interface speed (§3: trimmed-block acceleration).
	i, r, err := attack.FirstRedirect(h, bindings, maxPlans, pat, nil)
	if err != nil {
		return err
	}
	if i < 0 {
		return fmt.Errorf("experiments: figure 1 produced no redirection (try another seed)")
	}
	b := bindings[i]
	fmt.Fprintf(w, "aggressor rows %d/%d (bank %d): victim row %d\n",
		b.Triple.AggRows[0], b.Triple.AggRows[1], b.Triple.Bank, b.Triple.VictimRow)
	fmt.Fprintf(w, "BITFLIP: LBA %d remapped PBA %#x -> PBA %#x (xor %#x)\n",
		r[0].LBA, r[0].Old, r[0].New, r[0].Old^r[0].New)
	fmt.Fprintf(w, "reads of LBA %d now return a different physical block's data\n", r[0].LBA)
	return nil
}
