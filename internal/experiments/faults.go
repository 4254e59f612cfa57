package experiments

import (
	"errors"
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// faultTrial is one (fault rate, seed) measurement.
type faultTrial struct {
	KIOPS    float64 // victim goodput, thousands of ops per virtual second
	OKFrac   float64 // fraction of victim commands that completed cleanly
	Retries  uint64
	Timeouts uint64
	Media    uint64 // attempt-level media errors
	Failed   uint64 // commands completing with a typed failure
	Readonly uint64 // read-only mode entries
	Observed bool   // attack saw translation corruption
	Blocked  bool   // attack stopped by device degradation
}

// FaultsRobustness sweeps injected fault rates over the standardized
// testbed and reports, per rate: legitimate-tenant goodput through the
// robust NVMe front end, robustness-path activity (retries, timeouts,
// media errors, degradation), and attack success probability. The sweep
// fans across the trial engine; output is byte-identical at any worker
// count.
func FaultsRobustness(w io.Writer, opt Options) error {
	section(w, "faults", "robustness campaign: goodput and attack success vs injected fault rate")
	rates := []float64{0, 0.001, 0.01, 0.25}
	reps := 5
	if opt.Quick {
		reps = 3
	}
	rows, err := runTrialsObs(opt, len(rates)*reps, func(i int, reg *obs.Registry) (faultTrial, error) {
		return faultProbe(rates[i/reps], 0xF0+uint64(i), opt.Quick, reg)
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-10s %10s %8s %8s %9s %7s %7s %9s %8s\n",
		"fault-rate", "goodput", "ok-frac", "retries", "timeouts", "media", "failed", "readonly", "attack")
	for ri, rate := range rates {
		var agg faultTrial
		success, blocked := 0, 0
		for r := 0; r < reps; r++ {
			t := rows[ri*reps+r]
			agg.KIOPS += t.KIOPS
			agg.OKFrac += t.OKFrac
			agg.Retries += t.Retries
			agg.Timeouts += t.Timeouts
			agg.Media += t.Media
			agg.Failed += t.Failed
			agg.Readonly += t.Readonly
			if t.Observed {
				success++
			}
			if t.Blocked {
				blocked++
			}
		}
		attack := fmt.Sprintf("%d/%d", success, reps)
		if blocked > 0 {
			attack += fmt.Sprintf(" (%d blkd)", blocked)
		}
		fmt.Fprintf(w, "%-10g %9.1fk %8.4f %8d %9d %7d %7d %9d %8s\n",
			rate, agg.KIOPS/float64(reps), agg.OKFrac/float64(reps),
			agg.Retries, agg.Timeouts, agg.Media, agg.Failed, agg.Readonly, attack)
	}
	fmt.Fprintf(w, "\ngoodput is the victim tenant's clean-completion rate; 'attack' counts seeds\n")
	fmt.Fprintf(w, "where hammering corrupted a translation ('blkd': the probe was stopped by\n")
	fmt.Fprintf(w, "read-only degradation or command failures). Rising fault rates cost both\n")
	fmt.Fprintf(w, "tenants: retries/backoff throttle the attacker's achievable rate below the\n")
	fmt.Fprintf(w, "hammering threshold before the victim's goodput fully collapses.\n")
	return nil
}

// faultProbe runs one trial: build the standardized probe testbed with
// the plan armed, drive a victim goodput workload, then the standardized
// attack probe. Degradation stopping the attack (read-only mode,
// exhausted retries) is a result, not an error: it reports Blocked.
func faultProbe(rate float64, seed uint64, quick bool, reg *obs.Registry) (faultTrial, error) {
	cfg := probeTestbedConfig(seed)
	cfg.Device.FaultRate = rate
	cfg.Device.Robust = true
	cfg.Obs = reg
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		return faultTrial{}, err
	}

	// Victim goodput: a mixed 2:1 read/write raw workload on the victim
	// namespace in batches of queue depth 32, as the legitimate tenant's
	// traffic.
	nOps := 6000
	if quick {
		nOps = 2000
	}
	rng := tb.Device.World().Stream(0x600d9)
	buf := make([]byte, tb.Device.BlockBytes())
	data := make([]byte, tb.Device.BlockBytes())
	for i := range data {
		data[i] = byte(i)
	}
	cmds := make([]nvme.Command, 0, 32)
	var comps []nvme.Completion
	start := tb.Device.Clock().Now()
	ok, bad := 0, 0
	for done := 0; done < nOps; done += len(cmds) {
		cmds = cmds[:0]
		for len(cmds) < cap(cmds) && done+len(cmds) < nOps {
			lba := ftl.LBA(rng.Uint64n(tb.VictimNS.NumLBAs))
			cmd := nvme.Command{Op: nvme.OpRead, NS: tb.VictimNS, Path: nvme.PathHostFS, LBA: lba, Buf: buf}
			if rng.Float64() > 0.67 {
				cmd.Op, cmd.Buf = nvme.OpWrite, data
			}
			cmds = append(cmds, cmd)
		}
		comps = tb.Device.DoBatch(nil, cmds, comps[:0])
		for _, c := range comps {
			if c.Err != nil {
				bad++
			} else {
				ok++
			}
		}
	}
	elapsed := tb.Device.Clock().Now().Sub(start)

	observed, err := templateProbe(tb, attack.DoublePattern(), quick)
	blocked := err != nil && isDegradation(err)
	if err != nil && !blocked {
		return faultTrial{}, err
	}

	rs := tb.Device.RobustStats()
	return faultTrial{
		KIOPS:    float64(ok) / elapsed.Seconds() / 1e3,
		OKFrac:   float64(ok) / float64(ok+bad),
		Retries:  rs.Retries,
		Timeouts: rs.Timeouts,
		Media:    rs.MediaErrors,
		Failed:   rs.TimedOutCmds + rs.AbortedCmds + rs.MediaFailedCmds,
		Readonly: rs.ReadOnlyEntries,
		Observed: observed,
		Blocked:  blocked,
	}, nil
}

// isDegradation classifies command failures caused by the robustness
// layer (as opposed to experiment bugs).
func isDegradation(err error) bool {
	return errors.Is(err, nvme.ErrReadOnly) || errors.Is(err, nvme.ErrTimeout) ||
		errors.Is(err, nvme.ErrAborted) || errors.Is(err, nvme.ErrMediaFailure)
}
