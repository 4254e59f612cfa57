package ftl

import "ftlhammer/internal/obs"

// Trace event kinds emitted by the FTL.
const (
	// EvGC is one garbage-collection victim reclaimed: pages relocated,
	// the victim block index, free blocks after the erase.
	EvGC = "ftl.gc"
)

func init() {
	obs.RegisterEventKind(EvGC, "pages_moved", "victim_block", "free_after")
}

// registerObs wires the FTL into its world's registry: Stats counters are
// projected once at Flush; GC reclamations emit live trace events (rare
// by construction — GC runs once per low-watermark crossing).
func (f *FTL) registerObs(r *obs.Registry) {
	r.OnFlush(func() {
		s := f.stats
		add := func(name string, v uint64) { r.Counter(name).Add(v) }
		add("ftl_host_reads_total", s.HostReads)
		add("ftl_host_writes_total", s.HostWrites)
		add("ftl_trims_total", s.Trims)
		add("ftl_reads_unmapped_total", s.ReadsUnmapped)
		add("ftl_l2p_lookups_total", s.L2PLookups)
		add("ftl_cache_hits_total", s.CacheHits)
		add("ftl_cache_misses_total", s.CacheMisses)
		add("ftl_gc_runs_total", s.GCRuns)
		add("ftl_gc_pages_moved_total", s.GCPagesMoved)
		add("ftl_flash_programs_total", s.FlashPrograms)
		add("ftl_corrupt_reads_total", s.CorruptReads)
		add("ftl_uncorrected_ecc_total", s.UncorrectedECC)
		add("ftl_stale_invalidates_total", s.StaleInvalidates)
		if looked := s.CacheHits + s.CacheMisses; looked > 0 {
			r.Gauge("ftl_cache_hit_ratio").SetMax(float64(s.CacheHits) / float64(looked))
		}
	})
}
