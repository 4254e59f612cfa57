package nvme

import "ftlhammer/internal/obs"

// Trace event kinds emitted by the NVMe front end.
const (
	// EvGuardThrottle is a change of a namespace's guard-imposed IOPS
	// cap: namespace ID, the new cap (IOPS, 0 = lifted), the old cap.
	EvGuardThrottle = "nvme.guard_throttle"
	// EvRetry is one command re-issue: global LBA, the attempt number
	// just failed (1-based), and the backoff delay charged before the
	// re-issue.
	EvRetry = "nvme.retry"
	// EvTimeout is one per-attempt deadline expiry (including lost
	// completions detected by deadline): global LBA, opcode, and the
	// attempt's elapsed service time.
	EvTimeout = "nvme.timeout"
	// EvReadOnly is a degradation transition: entered (1) or exited (0),
	// the media-error count at entry, the clean streak at exit.
	EvReadOnly = "nvme.readonly"
)

func init() {
	obs.RegisterEventKind(EvGuardThrottle, "ns", "cap_iops", "prev_iops")
	obs.RegisterEventKind(EvRetry, "lba", "attempt", "backoff_ns")
	obs.RegisterEventKind(EvTimeout, "lba", "op", "elapsed_ns")
	obs.RegisterEventKind(EvReadOnly, "entered", "media_errors", "clean_streak")
}

// registerObs wires the device into its world's registry. Per-namespace
// counters are projected at Flush (namespaces may be added after New, so
// the hook walks them late); IOPS gauges divide command counts by elapsed
// virtual time — the paper's operating-point quantity (§4.1: ~1.4 M IOPS
// on the direct path).
func (d *Device) registerObs(r *obs.Registry) {
	r.OnFlush(func() {
		if d.robustOn() {
			// The retry-count distribution is simulation state (so it
			// survives checkpoint/restore), projected here in one pass.
			h := r.Histogram("nvme_retries_per_command", obs.RetryBuckets)
			for retries := 1; retries <= d.rob.MaxRetries; retries++ {
				h.ObserveN(float64(retries), d.retryDist[retries])
			}
			rs := d.rstats
			r.Counter("nvme_retries_total").Add(rs.Retries)
			r.Counter("nvme_timeouts_total").Add(rs.Timeouts)
			r.Counter("nvme_dropped_completions_total").Add(rs.DroppedCompletions)
			r.Counter("nvme_media_errors_total").Add(rs.MediaErrors)
			r.Counter("nvme_cmds_timedout_total").Add(rs.TimedOutCmds)
			r.Counter("nvme_cmds_aborted_total").Add(rs.AbortedCmds)
			r.Counter("nvme_cmds_media_failed_total").Add(rs.MediaFailedCmds)
			r.Counter("nvme_readonly_entries_total").Add(rs.ReadOnlyEntries)
			r.Counter("nvme_readonly_exits_total").Add(rs.ReadOnlyExits)
			r.Counter("nvme_readonly_rejects_total").Add(rs.ReadOnlyRejects)
		}
		var total uint64
		elapsed := float64(d.clk.Now()) / 1e9
		for _, ns := range d.namespaces {
			s := ns.stats
			ops := s.Reads + s.Writes + s.Trims
			total += ops
			r.Counter(obs.L("nvme_ns_reads_total", "ns", ns.ID)).Add(s.Reads)
			r.Counter(obs.L("nvme_ns_writes_total", "ns", ns.ID)).Add(s.Writes)
			r.Counter(obs.L("nvme_ns_trims_total", "ns", ns.ID)).Add(s.Trims)
			r.Counter(obs.L("nvme_ns_throttled_total", "ns", ns.ID)).Add(s.Throttled)
			if elapsed > 0 && ops > 0 {
				r.Gauge(obs.L("nvme_ns_iops", "ns", ns.ID)).
					SetMax(float64(ops) / elapsed)
			}
			if d.guard != nil {
				r.Counter(obs.L("guard_violations_total", "ns", ns.ID)).
					Add(d.guard.Violations(ns.ID))
			}
		}
		r.Counter("nvme_commands_total").Add(total)
		if d.guard != nil {
			// Guard filter health: cumulative insert/blacklist/rotation
			// counters plus the live occupancy-derived false-positive
			// bound and the (constant) memory footprint.
			gs := d.guard.Stats()
			r.Counter("guard_inserts_total").Add(gs.Inserts)
			r.Counter("guard_blacklists_total").Add(gs.Blacklists)
			r.Counter("guard_rotations_total").Add(gs.Rotations)
			r.Gauge("guard_filter_occupancy").SetMax(d.guard.Occupancy())
			r.Gauge("guard_fp_bound").SetMax(d.guard.FPBound())
			r.Gauge("guard_footprint_bytes").SetMax(float64(d.guard.FootprintBytes()))
		}
		if elapsed > 0 {
			r.Gauge("nvme_elapsed_virtual_seconds").SetMax(elapsed)
			if total > 0 {
				r.Gauge("nvme_iops").SetMax(float64(total) / elapsed)
			}
		}
		if d.maxBatch > 0 {
			r.Gauge("nvme_queue_batch_max").SetMax(float64(d.maxBatch))
		}
	})
}
