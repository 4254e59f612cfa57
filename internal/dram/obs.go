package dram

import "ftlhammer/internal/obs"

// Trace event kinds emitted by the DRAM model. Attribute meanings are
// registered here and documented in docs/METRICS.md.
const (
	// EvFlip is one applied rowhammer bitflip: bank, victim row, bit.
	EvFlip = "dram.flip"
	// EvECCUncorrectable is a double-bit error surfaced by a read: the
	// physical address of the failing word.
	EvECCUncorrectable = "dram.ecc_uncorrectable"
	// EvTRRRefresh is one TRR neighbour refresh at a refresh-command
	// boundary: bank, the sampled aggressor row whose neighbours were
	// refreshed, and the sampler's activation count for it.
	EvTRRRefresh = "dram.trr_refresh"
)

func init() {
	obs.RegisterEventKind(EvFlip, "bank", "row", "bit")
	obs.RegisterEventKind(EvECCUncorrectable, "addr", "", "")
	obs.RegisterEventKind(EvTRRRefresh, "bank", "row", "acts")
}

// registerObs wires the module into its world's registry. Counters the
// module maintains anyway (Stats) are projected once at Flush instead of
// being double-counted on the hot path; the per-bank activation
// distribution comes from the bankActs array the module keeps. Only rare occurrences (flips, uncorrectable ECC) emit
// live trace events.
func (m *Module) registerObs(r *obs.Registry) {
	r.OnFlush(func() {
		s := m.stats
		add := func(name string, v uint64) { r.Counter(name).Add(v) }
		add("dram_reads_total", s.Reads)
		add("dram_writes_total", s.Writes)
		add("dram_activations_total", s.Activations)
		add("dram_row_hits_total", s.RowHits)
		add("dram_flips_total", s.Flips)
		add("dram_flip_attempts_total", s.FlipAttempts)
		add("dram_trr_refreshes_total", s.TRRRefreshes)
		add("dram_para_refreshes_total", s.PARARefreshes)
		add("dram_ecc_corrected_total", s.ECCCorrected)
		add("dram_ecc_uncorrected_total", s.ECCUncorrected)

		// Mitigation-zoo counters: the countermeasures' own activity,
		// separate from the array counters above so defense sweeps can
		// read effectiveness and cost directly.
		add("dram_mitigation_refreshes_total", s.TRRRefreshes+s.PARARefreshes)
		add("dram_mitigation_trr_dropped_total", s.TRRDropped)
		add("dram_mitigation_para_draws_total", s.PARADraws)

		// Distribution of activations across all banks, idle banks
		// included: hammering shows up as extreme skew (a few banks in
		// the top buckets, the rest at zero).
		h := r.Histogram("dram_bank_activations", obs.ActivationBuckets)
		for _, a := range m.bankActs {
			h.Observe(float64(a))
		}

		// The paper's headline x-axis: sustained activations per second
		// of virtual time. Gauges merge by max across trial worlds; the
		// exact aggregate rate is derivable from the counters.
		if now := m.clk.Now(); now > 0 {
			elapsed := float64(now) / 1e9
			r.Gauge("dram_activation_rate").SetMax(float64(s.Activations) / elapsed)
		}
		if total := s.Activations + s.RowHits; total > 0 {
			r.Gauge("dram_row_hit_ratio").SetMax(float64(s.RowHits) / float64(total))
		}
	})
}
