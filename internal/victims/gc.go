package victims

import (
	"errors"
	"fmt"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// gcCanaryFill is the recognizable byte written to GC canary blocks
// (distinct from attack.CanaryVictim's fill so misdirected reads between
// the two victim kinds cannot alias).
func gcCanaryFill(lba ftl.LBA) byte { return byte(lba) ^ 0x5A }

// scratchPerCanary is how many trimmed scratch writes follow each GC
// canary write when Arm interleaves.
const scratchPerCanary = 3

// gcMaxLines bounds the victim line anchors GCVictim arms per binding
// (2 lines = 32 canaries), the scale the package tests validate.
const gcMaxLines = 2

// GCDetail is GCVictim's fine-grained Check classification plus the
// FTL's GC activity between Arm and Check.
type GCDetail struct {
	// Intact canaries read back correctly from their original page.
	Intact int
	// Relocated canaries read back correctly from a NEW physical page:
	// GC moved them and rewrote their translation — any flip the entry
	// carried is gone (exposure RESET).
	Relocated int
	// Detected canaries failed loudly (corrupt-translation error).
	Detected int
	// Silent canaries came back wrong or unmapped without an error.
	Silent int
	// GCRuns and PagesMoved are the FTL's garbage-collection deltas
	// over the armed window — zero means the attack window saw no
	// relocation and every flip stays exposed until the victim rewrites.
	GCRuns, PagesMoved uint64
}

func (d GCDetail) String() string {
	return fmt.Sprintf("intact=%d relocated=%d detected=%d silent=%d gc_runs=%d moved=%d",
		d.Intact, d.Relocated, d.Detected, d.Silent, d.GCRuns, d.PagesMoved)
}

// GCVictim measures how FTL garbage collection interacts with an L2P
// flip. Arm populates the victim lines like attack.CanaryVictim but
// interleaves each canary write with a scratch write it then trims, so
// canary NAND blocks start half-dead — first in line when GC looks for
// a victim block. Check separates content-intact-but-moved canaries
// (GC rewrote the translation: exposure reset) from corrupted ones
// (the flip survived the attack window, or GC amplified it). It arms
// gcMaxLines victim lines per binding, and its traffic takes
// nvme.PathDirect.
type GCVictim struct {
	Dev *nvme.Device
	NS  *nvme.Namespace
	// Interleave (default on unless NoInterleave) follows every canary
	// write with scratchPerCanary scratch writes from the top of the
	// namespace that are then trimmed, leaving canary NAND blocks mostly
	// dead — the cold-data-in-a-stale-block placement that makes them
	// GC's first reclaim candidates.
	NoInterleave bool
	// Obs, when non-nil, receives the EvVerdict event per Check.
	Obs *obs.Registry

	watched []ftl.LBA // namespace-relative
	ppns    []uint32
	buf     []byte
	gc0     ftl.Stats
	detail  GCDetail
}

// Arm populates the victim lines of every binding
// (attack.Binding.VictimEntries, as in attack.CanaryVictim), interleaving
// scratch writes, then trims the scratch and snapshots translations and
// GC stats.
func (v *GCVictim) Arm(bindings []attack.Binding) error {
	if v.buf == nil {
		v.buf = make([]byte, v.Dev.BlockBytes())
	}
	v.watched = v.watched[:0]
	v.ppns = v.ppns[:0]
	seen := make(map[ftl.LBA]bool)
	scratch := ftl.LBA(v.NS.NumLBAs) // allocated downward from the top
	var trims []ftl.LBA
	for _, b := range bindings {
		// Append b's entries, then filter them in place down to the
		// first sighting of each.
		n := len(v.watched)
		v.watched = b.VictimEntries(v.watched, v.NS, gcMaxLines)
		entries := v.watched[n:]
		v.watched = v.watched[:n]
		for _, rel := range entries {
			if seen[rel] {
				continue
			}
			seen[rel] = true
			for j := range v.buf {
				v.buf[j] = gcCanaryFill(rel)
			}
			if err := v.Dev.Write(v.NS, rel, v.buf, nvme.PathDirect); err != nil {
				return err
			}
			if !v.NoInterleave {
				for s := 0; s < scratchPerCanary; s++ {
					scratch--
					if uint64(scratch) > uint64(v.NS.NumLBAs) || seen[scratch] {
						return errors.New("victims: GCVictim scratch region collides with watched lines")
					}
					if err := v.Dev.Write(v.NS, scratch, v.buf, nvme.PathDirect); err != nil {
						return err
					}
					trims = append(trims, scratch)
				}
			}
			v.watched = append(v.watched, rel)
		}
	}
	for _, s := range trims {
		if err := v.Dev.Trim(v.NS, s, nvme.PathDirect); err != nil {
			return err
		}
	}
	// Snapshot translations only after the scratch trims so Arm-time GC
	// (if any) is already settled.
	for _, rel := range v.watched {
		v.ppns = append(v.ppns, uint32(v.Dev.FTL().PPNOf(v.NS.StartLBA+rel)))
	}
	v.gc0 = v.Dev.FTL().Stats()
	return nil
}

// Watched returns the namespace-relative canary LBAs (white-box
// accessor for aiming flips). Valid after Arm.
func (v *GCVictim) Watched() []ftl.LBA { return v.watched }

// Detail returns the classification of the last Check.
func (v *GCVictim) Detail() GCDetail { return v.detail }

// Check re-reads every canary, comparing content and translation.
func (v *GCVictim) Check() (attack.VictimReport, error) {
	if v.buf == nil {
		return attack.VictimReport{}, errors.New("victims: GCVictim not armed")
	}
	var det GCDetail
	st := v.Dev.FTL().Stats()
	det.GCRuns = st.GCRuns - v.gc0.GCRuns
	det.PagesMoved = st.GCPagesMoved - v.gc0.GCPagesMoved
	rep := attack.VictimReport{Checked: len(v.watched)}
	for i, rel := range v.watched {
		moved := uint32(v.Dev.FTL().PPNOf(v.NS.StartLBA+rel)) != v.ppns[i]
		if moved {
			rep.Remapped++
		}
		mapped, err := v.Dev.Read(v.NS, rel, v.buf, nvme.PathDirect)
		switch {
		case err != nil:
			det.Detected++
			rep.Corrupted++
		case !mapped:
			det.Silent++
			rep.Corrupted++
		default:
			intact := true
			want := gcCanaryFill(rel)
			for _, bb := range v.buf {
				if bb != want {
					intact = false
					break
				}
			}
			switch {
			case intact && moved:
				det.Relocated++
			case intact:
				det.Intact++
			default:
				det.Silent++
				rep.Corrupted++
			}
		}
	}
	v.detail = det
	emitVerdict(v.Obs, v.Dev, rep.Checked, rep.Corrupted, det.Detected)
	return rep, nil
}

// ChurnHammerer wraps another Hammerer and interleaves victim-side
// write churn between hammer rounds: the attack pattern's iterations
// are split into Rounds, and after each round the churn workload
// overwrites a rotating window of blocks, depleting the free pool so
// FTL garbage collection runs DURING the attack. Optional Prime reads
// model the victim touching its data mid-attack — the load that makes
// a landed flip observable (and persistent in the table) before GC
// decides its fate. Its reads and writes take nvme.PathDirect.
type ChurnHammerer struct {
	Inner attack.Hammerer
	Dev   *nvme.Device
	// ChurnNS is where churn writes land (typically the victim tenant's
	// namespace — GC and the free pool are device-global).
	ChurnNS *nvme.Namespace
	// Rounds splits the pattern's iterations (default 4). Writes is
	// churn writes per round (default 128) over a rotating window of
	// Span blocks (default 32) at the top of ChurnNS.
	Rounds, Writes int
	Span           ftl.LBA
	// PrimeNS/Prime, when set, are read once (errors ignored) after
	// the first hammer round.
	PrimeNS *nvme.Namespace
	Prime   []ftl.LBA

	buf    []byte
	cursor ftl.LBA
	primed bool
}

// churnLBA picks the i-th churn offset in [0, span) by a fixed integer
// hash: overwrites land uniformly rather than cyclically, so churn
// blocks lose validity gradually (as under a real random-update
// workload) instead of dying wholesale one cycle later — which would
// hand GC an endless supply of free-to-erase blocks and never force it
// to relocate anything.
func churnLBA(i, span uint64) ftl.LBA {
	x := i + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return ftl.LBA(x % span)
}

// Hammer drives the inner pattern in rounds with churn in between.
func (h *ChurnHammerer) Hammer(b attack.Binding, p attack.Pattern) error {
	rounds := h.Rounds
	if rounds <= 0 {
		rounds = 4
	}
	writes := h.Writes
	if writes <= 0 {
		writes = 128
	}
	span := h.Span
	if span <= 0 {
		span = 32
	}
	if h.buf == nil {
		h.buf = make([]byte, h.Dev.BlockBytes())
	}
	if uint64(span) >= h.ChurnNS.NumLBAs {
		return errors.New("victims: churn span exceeds namespace")
	}
	base := ftl.LBA(h.ChurnNS.NumLBAs) - span
	share := p.Iterations / rounds
	for r := 0; r < rounds; r++ {
		rp := p
		rp.Iterations = share
		if r == 0 {
			rp.Iterations += p.Iterations % rounds
		}
		if rp.Iterations > 0 {
			if err := h.Inner.Hammer(b, rp); err != nil {
				return err
			}
		}
		if !h.primed && h.PrimeNS != nil {
			h.primed = true
			for _, lba := range h.Prime {
				// The read exists for its loadEntry side effect; a
				// corrupt-translation error is an expected outcome here.
				_, _ = h.Dev.Read(h.PrimeNS, lba, h.buf, nvme.PathDirect)
			}
		}
		for w := 0; w < writes; w++ {
			lba := base + churnLBA(uint64(h.cursor), uint64(span))
			for j := range h.buf {
				h.buf[j] = byte(h.cursor) ^ 0xC3
			}
			if err := h.Dev.Write(h.ChurnNS, lba, h.buf, nvme.PathDirect); err != nil {
				if errors.Is(err, ftl.ErrDeviceFull) {
					// Churn filled the device: GC has no headroom left,
					// which is itself a valid end state for the round.
					return nil
				}
				return err
			}
			h.cursor++
		}
	}
	return nil
}
