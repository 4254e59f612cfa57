package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/ext4"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
)

// Figure3 reproduces the paper's Figure 3 / §4.2 exploit: the end-to-end
// ext4 indirect-block information leak on the shared-SSD cloud testbed.
// The unprivileged process sprays indirect-addressed files whose data
// blocks are maliciously formed indirect blocks, the attacker VM hammers
// the cross-partition triples, and the scan stage detects a spray file
// whose translation was redirected — through which the victim partition's
// privileged content is dumped.
func Figure3(w io.Writer, opt Options) error {
	section(w, "Figure 3", "ext4 indirect-block exploit: unprivileged information leak")
	cfg := quickTestbedConfig(0xF3)
	cfg.Device.Amplify = 1
	maxCycles := 16
	if !opt.Quick {
		cfg = paperTestbedConfig(0xF3)
		maxCycles = 24
	}
	cfg.Obs = opt.Obs
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		return err
	}
	camp, err := attack.NewCampaign(tb, attack.CampaignConfig{
		SprayFiles:      3072,
		TargetsPerFile:  64,
		MaxCycles:       maxCycles,
		TriplesPerCycle: 8,
		Hunt:            "victim-data-block-",
	})
	if err != nil {
		return err
	}
	rep, err := camp.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "spray files created:        %d (hole of 12 blocks + malicious indirect data)\n", rep.SpraysCreated)
	fmt.Fprintf(w, "hammer reads issued:        %d\n", rep.HammerReads)
	fmt.Fprintf(w, "bitflips induced (truth):   %d\n", rep.FlipsInduced)
	fmt.Fprintf(w, "attack cycles run:          %d\n", rep.Cycles)
	fmt.Fprintf(w, "leaks detected by scan:     %d\n", rep.LeaksDetected)
	fmt.Fprintf(w, "victim blocks dumped:       %d\n", rep.BlocksDumped)
	fmt.Fprintf(w, "virtual time elapsed:       %v\n", rep.Elapsed)
	if !rep.SecretFound {
		return fmt.Errorf("experiments: figure 3 leak did not complete in %d cycles", rep.Cycles)
	}
	excerpt := rep.SecretContent
	if len(excerpt) > 48 {
		excerpt = excerpt[:48]
	}
	fmt.Fprintf(w, "LEAKED privileged content:  %q...\n", excerpt)
	fmt.Fprintf(w, "-> an unprivileged tenant read another tenant's data through the FTL\n")
	return nil
}

// Escalation demonstrates the §3.2 privilege-escalation consequence: a
// single-bit translation corruption redirects the victim's setuid binary
// to attacker polyglot content, which then "runs" as root.
func Escalation(w io.Writer, opt Options) error {
	section(w, "§3.2", "privilege escalation: setuid binary hijack via one-bit translation corruption")
	cfg := quickTestbedConfig(0x35)
	if !opt.Quick {
		cfg = paperTestbedConfig(0x35)
	}
	cfg.Obs = opt.Obs
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		return err
	}
	res, err := demonstrateEscalation(tb)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "victim executes /usr/bin/sudo: genuine=%v hijacked=%v asRoot=%v\n",
		res.Genuine, res.Hijacked, res.AsRoot)
	if !res.Hijacked || !res.AsRoot {
		return fmt.Errorf("experiments: escalation demonstration failed")
	}
	fmt.Fprintf(w, "-> attacker polyglot content executed with root privilege\n")
	return nil
}

// demonstrateEscalation shows the §3.2 privilege-escalation consequence
// mechanically: it locates the victim's setuid binary translation, finds
// a polyglot-bearing physical page whose number differs from the current
// translation by exactly one bit, and applies that single-bit corruption
// — precisely the effect of one lucky rowhammer flip. It then has the
// victim "execute" the binary. This is evaluation scaffolding (the
// probability of this exact flip is what §4.3 models); it reuses the
// production read path end to end.
func demonstrateEscalation(tb *cloud.Testbed) (cloud.ExecResult, error) {
	// Victim's sudo binary: filesystem block -> global LBA -> entry.
	f, err := tb.VictimFS.Open("/usr/bin/sudo", ext4.Cred{UID: 1000, GID: 1000}, false)
	if err != nil {
		return cloud.ExecResult{}, err
	}
	fsBlk, err := f.MapBlock(0)
	if err != nil {
		return cloud.ExecResult{}, err
	}
	global := tb.VictimNS.StartLBA + ftl.LBA(fsBlk)
	cur := tb.Device.FTL().PPNOf(global)

	// Spray polyglots across the attacker partition in chunks until some
	// one-bit neighbour of `cur` holds payload (the paper fills 100% of
	// the attacker partition, §4.3: Fa = Ca).
	payload, err := attack.CraftPolyglot(nil, cloud.PolyglotMarker, []byte("pwned"))
	if err != nil {
		return cloud.ExecResult{}, err
	}
	total := tb.Device.Flash().Geometry().TotalPages()
	buf := make([]byte, tb.Device.BlockBytes())
	findBit := func() int {
		for bit := 0; bit < 32; bit++ {
			cand := uint64(cur) ^ (1 << bit)
			if cand >= total {
				continue
			}
			if err := tb.Device.Flash().Read(nand.PPN(cand), buf); err != nil {
				continue
			}
			if bytes.Contains(buf, []byte(cloud.PolyglotMarker)) {
				return bit
			}
		}
		return -1
	}
	const chunk = 4096
	bit := findBit()
	for next := uint64(0); bit < 0 && next < tb.AttackerNS.NumLBAs; next += chunk {
		end := next + chunk
		if end > tb.AttackerNS.NumLBAs {
			end = tb.AttackerNS.NumLBAs
		}
		lbas := make([]ftl.LBA, 0, end-next)
		for i := next; i < end; i++ {
			lbas = append(lbas, ftl.LBA(i))
		}
		if err := attack.RawSpray(tb.Device, tb.AttackerNS, nvme.PathDirect, lbas, payload); err != nil {
			return cloud.ExecResult{}, err
		}
		bit = findBit()
	}
	if bit < 0 {
		return cloud.ExecResult{}, errors.New("experiments: no one-bit polyglot neighbour found")
	}
	// Apply the single-bit corruption to the stored translation — the
	// exact effect of one lucky rowhammer flip.
	addr, err := tb.Device.FTL().EntryAddr(global)
	if err != nil {
		return cloud.ExecResult{}, err
	}
	raw := make([]byte, 4)
	if err := tb.Device.DRAM().Read(addr, raw); err != nil {
		return cloud.ExecResult{}, err
	}
	raw[bit/8] ^= 1 << (bit % 8)
	if err := tb.Device.DRAM().Write(addr, raw); err != nil {
		return cloud.ExecResult{}, err
	}
	// Victim runs sudo; the read path follows the corrupted translation.
	return tb.ExecuteBinary("/usr/bin/sudo", ext4.Cred{UID: 1000, GID: 1000})
}
