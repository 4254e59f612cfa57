package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/ext4"
	"ftlhammer/internal/nvme"
)

// Figure2 reproduces the paper's Figure 2: on the testbed, the direct
// unprivileged path (a) is too slow for rowhammering, so a helper attacker
// VM with direct device access (b) is needed. The experiment measures the
// achievable L2P access rate on each path and compares it with the
// device's flip threshold.
func Figure2(w io.Writer, opt Options) error {
	section(w, "Figure 2", "attack paths: (a) victim-VM host-FS path vs (b) attacker VM direct access")
	// Rates are what this experiment measures, so the real testbed
	// threshold (3 M activations/s) is used even in quick mode; only the
	// environment-population size shrinks.
	cfg := paperTestbedConfig(0xF2)
	if opt.Quick {
		cfg.VictimFillBlocks = 512
	}
	cfg.Obs = opt.Obs
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		return err
	}
	bindings, err := attack.Analyze(tb.Device, tb.AttackerNS, attack.AnalyzeOptions{VictimNSID: tb.VictimNS.ID})
	if err != nil {
		return err
	}
	amp := float64(tb.Device.FTL().Config().HammersPerIO)
	required := attack.RequiredRate(tb.Device)
	fmt.Fprintf(w, "DRAM profile: %s\n", tb.Device.DRAM().Config().Profile.Name)
	fmt.Fprintf(w, "required aggressor-row activation rate: %.2f M/s\n", required/1e6)
	fmt.Fprintf(w, "firmware amplification: x%.0f activations per I/O\n\n", amp)
	fmt.Fprintf(w, "%-44s %12s %16s %10s\n", "path", "IOPS", "activations/s", "feasible")

	const n = 40000
	// Path (a): unprivileged process in the victim VM, through the guest
	// filesystem. Alternating reads of two of its own files.
	aIOPS, err := hostFSReadRate(tb, n)
	if err != nil {
		return err
	}
	report(w, "(a) victim VM, unprivileged via ext4 (host-FS)", aIOPS, amp, required)

	// Path (a'): same VM but raw block reads on the host-FS path (no
	// filesystem overhead, still the virtualized stack).
	rawIOPS, err := pathReadRate(tb, nvme.PathHostFS, n)
	if err != nil {
		return err
	}
	report(w, "(a') victim VM, raw blocks (host-FS path)", rawIOPS, amp, required)

	// Path (b): helper attacker VM, SRIOV-style direct queue access,
	// reads of trimmed LBAs.
	if _, err := attack.PinAndTrim(tb.Device, tb.AttackerNS, nvme.PathDirect, bindings[0]); err != nil {
		return err
	}
	h := &attack.DeviceHammerer{Dev: tb.Device, NS: tb.AttackerNS, Path: nvme.PathDirect}
	bIOPS, err := attack.MeasuredRate(h, bindings[0], n)
	if err != nil {
		return err
	}
	report(w, "(b) attacker VM, direct + trimmed LBAs", bIOPS, amp, required)

	if aIOPS*amp >= required {
		return fmt.Errorf("experiments: figure 2 shape broken: host-FS path should be infeasible")
	}
	if bIOPS*amp < required {
		return fmt.Errorf("experiments: figure 2 shape broken: direct path should be feasible")
	}
	fmt.Fprintf(w, "\n-> as in the paper, the slow testbed needs the helper attacker VM (setup b)\n")
	return nil
}

func report(w io.Writer, name string, iops, amp, required float64) {
	feasible := "no"
	if iops*amp >= required {
		feasible = "YES"
	}
	fmt.Fprintf(w, "%-44s %12.0f %16.0f %10s\n", name, iops, iops*amp, feasible)
}

// hostFSReadRate measures alternating single-block reads of two attacker
// files inside the victim VM.
func hostFSReadRate(tb *cloud.Testbed, n int) (float64, error) {
	for _, name := range []string{"/home/attacker/r1", "/home/attacker/r2"} {
		f, err := tb.VictimFS.Create(name, cloud.AttackerCred, ext4.CreateOptions{Mode: 0o644})
		if err != nil {
			return 0, err
		}
		if _, err := f.WriteAt(make([]byte, ext4.BlockSize), 0); err != nil {
			return 0, err
		}
	}
	f1, err := tb.VictimFS.Open("/home/attacker/r1", cloud.AttackerCred, false)
	if err != nil {
		return 0, err
	}
	f2, err := tb.VictimFS.Open("/home/attacker/r2", cloud.AttackerCred, false)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, ext4.BlockSize)
	start := tb.Device.Clock().Now()
	for i := 0; i < n/2; i++ {
		if _, err := f1.ReadAt(buf, 0); err != nil {
			return 0, err
		}
		if _, err := f2.ReadAt(buf, 0); err != nil {
			return 0, err
		}
	}
	elapsed := tb.Device.Clock().Now().Sub(start)
	return float64(n) / elapsed.Seconds(), nil
}

// pathReadRate measures raw alternating block reads on a path.
func pathReadRate(tb *cloud.Testbed, path nvme.Path, n int) (float64, error) {
	buf := make([]byte, tb.Device.BlockBytes())
	start := tb.Device.Clock().Now()
	for i := 0; i < n/2; i++ {
		if _, err := tb.Device.Read(tb.VictimNS, 1, buf, path); err != nil {
			return 0, err
		}
		if _, err := tb.Device.Read(tb.VictimNS, 4097, buf, path); err != nil {
			return 0, err
		}
	}
	elapsed := tb.Device.Clock().Now().Sub(start)
	return float64(n) / elapsed.Seconds(), nil
}
