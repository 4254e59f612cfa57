package experiments

import (
	"fmt"
	"io"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// Blast measures the fleet's blast radius: how far one aggressor tenant's
// FTL rowhammer reaches when tenants are sharded across devices
// (docs/FLEET.md). The attack's physical medium is the device-controller
// DRAM holding the L2P table, so its reach ends exactly at the device
// boundary: a co-located victim shares the aggressor's DRAM module and
// its translations can sit between aggressor rows, while a victim on
// another device shares no DRAM at all — nothing the aggressor does can
// activate a row there.
//
// For each placement policy the experiment builds a 2-device fleet with 2
// tenants per device, runs the §4.2 cross-partition attack from tenant 1
// against its co-located neighbor, and verifies the two claims:
//
//   - co-located: the offline analysis finds aggressor/victim triples and
//     hammering remaps one of the victim's L2P entries;
//   - remote: every other device's state hash is byte-identical before
//     and after the campaign and its DRAM saw zero activations.
//
// Placement is therefore the blast-radius dial: spread separates
// consecutive tenants onto different devices, pack stacks them together.
func Blast(w io.Writer, opt Options) error {
	section(w, "BLAST", "fleet blast radius: placement bounds rowhammer reach to one device")

	for _, policy := range []fleet.Policy{fleet.PolicySpread, fleet.PolicyPack} {
		if err := blastUnder(w, opt, policy); err != nil {
			return fmt.Errorf("experiments: blast under %s: %w", policy, err)
		}
	}
	fmt.Fprintf(w, "verdict: blast radius = one device (co-located victims exposed, cross-device victims untouched)\n")
	return nil
}

// blastSpec is the per-device build recipe: the quick or paper testbed's
// device, two tenants per device. Blast has always run it without the
// tRC/tFAW timing the testbeds have, and its pinned output depends on
// that.
func blastSpec(quick bool) fleet.DeviceSpec {
	cfg := paperTestbedConfig(0)
	if quick {
		cfg = quickTestbedConfig(0)
	}
	sp := cfg.Device
	sp.Tenants = 2
	sp.DRAM.Timing = dram.Timing{}
	return sp
}

func blastUnder(w io.Writer, opt Options, policy fleet.Policy) error {
	f, err := fleet.New(fleet.Config{
		Devices:   2,
		Spec:      blastSpec(opt.Quick),
		Seed:      0xB1A57,
		Placement: fleet.Placement{Policy: policy},
		Obs:       opt.Obs,
	})
	if err != nil {
		return err
	}

	const aggressor = 1
	aggRoute, err := f.Table().Lookup(aggressor)
	if err != nil {
		return err
	}
	var coTenants, remoteTenants []int
	for _, t := range f.Table().Tenants() {
		if t == aggressor {
			continue
		}
		r, err := f.Table().Lookup(t)
		if err != nil {
			return err
		}
		if r.Device == aggRoute.Device {
			coTenants = append(coTenants, t)
		} else {
			remoteTenants = append(remoteTenants, t)
		}
	}
	fmt.Fprintf(w, "placement %s: aggressor tenant %d on device %d; co-located victims %v, remote victims %v\n",
		policy, aggressor, aggRoute.Device, coTenants, remoteTenants)

	// Fingerprint every remote device before the campaign. The members are
	// built but not serving, so this goroutine owns their state.
	type remoteState struct {
		tenant      int
		device      int
		hash        uint64
		activations uint64
	}
	var remotes []remoteState
	for _, t := range remoteTenants {
		r, err := f.Table().Lookup(t)
		if err != nil {
			return err
		}
		bd := f.Member(r.Device).BD
		remotes = append(remotes, remoteState{
			tenant:      t,
			device:      r.Device,
			hash:        bd.Device.StateHash(),
			activations: bd.Device.DRAM().Stats().Activations,
		})
	}

	// The co-located attack: §4.2 cross-partition analysis and hammering
	// against the neighbor sharing the aggressor's DRAM module.
	dev := f.Member(aggRoute.Device).BD.Device
	aggNS, ok := dev.NamespaceByID(aggRoute.NSID)
	if !ok {
		return fmt.Errorf("no namespace %d on device %d", aggRoute.NSID, aggRoute.Device)
	}
	victim := coTenants[0]
	vicRoute, err := f.Table().Lookup(victim)
	if err != nil {
		return err
	}
	vicNS, ok := dev.NamespaceByID(vicRoute.NSID)
	if !ok {
		return fmt.Errorf("no namespace %d on device %d", vicRoute.NSID, vicRoute.Device)
	}

	bindings, err := attack.Analyze(dev, aggNS, attack.AnalyzeOptions{VictimNSID: vicNS.ID})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  offline analysis vs tenant %d (same device): %d cross-partition triples\n",
		victim, len(bindings))

	// Populate the victim's translations sitting in the candidate victim
	// rows, so a flip has a live L2P entry to redirect: writes in batches
	// of queue depth 32.
	data := make([]byte, dev.FTL().BlockBytes())
	for i := range data {
		data[i] = 0xA5
	}
	var entries []ftl.LBA
	cmds := make([]nvme.Command, 0, 32)
	var comps []nvme.Completion
	prepare := func(b attack.Binding) error {
		entries = b.VictimEntries(entries[:0], vicNS, 0)
		for i, rel := range entries {
			cmds = append(cmds, nvme.Command{Op: nvme.OpWrite, NS: vicNS, Path: nvme.PathDirect, LBA: rel, Buf: data})
			if len(cmds) == cap(cmds) || i == len(entries)-1 {
				comps = dev.DoBatch(nil, cmds, comps[:0])
				cmds = cmds[:0]
			}
		}
		return nil
	}

	h := &attack.DeviceHammerer{Dev: dev, NS: aggNS, Path: nvme.PathDirect}
	pat := attack.DoublePattern()
	pat.Iterations = attack.HammerBudget(dev, 2)
	maxPlans := 24
	if !opt.Quick {
		maxPlans = 64
	}
	i, r, err := attack.FirstRedirect(h, bindings, maxPlans, pat, prepare)
	if err != nil {
		return err
	}
	if i < 0 {
		return fmt.Errorf("no co-located redirection within %d plans (try another seed)", maxPlans)
	}
	fmt.Fprintf(w, "  BLAST: co-located tenant %d hit — LBA %d remapped PBA %#x -> PBA %#x (plan %d, victim row %d)\n",
		victim, r[0].LBA, r[0].Old, r[0].New, i, bindings[i].Triple.VictimRow)

	// The campaign is over; every remote device must be bit-for-bit where
	// it started.
	for _, rs := range remotes {
		bd := f.Member(rs.device).BD
		hash := bd.Device.StateHash()
		acts := bd.Device.DRAM().Stats().Activations - rs.activations
		if hash != rs.hash {
			return fmt.Errorf("remote device %d state hash changed %#x -> %#x: blast crossed the device boundary",
				rs.device, rs.hash, hash)
		}
		if acts != 0 {
			return fmt.Errorf("remote device %d saw %d DRAM activations during the attack", rs.device, acts)
		}
		fmt.Fprintf(w, "  remote tenant %d (device %d): state hash unchanged, 0 attack-era DRAM activations\n",
			rs.tenant, rs.device)
	}
	return nil
}
