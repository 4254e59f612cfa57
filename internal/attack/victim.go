package attack

import (
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// Victim observes translation corruption induced by hammering. Arm
// populates or locates the watched state before the hammer stage; Check
// reports what changed since.
type Victim interface {
	Arm(bindings []Binding) error
	Check() (VictimReport, error)
}

// VictimReport summarizes what a victim observed.
type VictimReport struct {
	// Checked is how many victim units were examined.
	Checked int
	// Corrupted is how many of them show attacker-visible corruption
	// (probe data changed, read errored, mapping vanished).
	Corrupted int
	// Remapped counts L2P translations whose physical page number
	// changed — the simulator-side ground truth the canary victim also
	// reads (white-box; the corruption signal above is what a real
	// attacker sees).
	Remapped int
}

// CanaryVictim watches raw LBAs whose L2P entries share the victim DRAM
// rows of the armed bindings: it populates each victim line's entries
// with recognizable data, snapshots their translations, and on Check
// reports both the attacker-visible corruption (reads) and the
// ground-truth remap count (PPN comparison).
type CanaryVictim struct {
	Dev  *nvme.Device
	NS   *nvme.Namespace
	Path nvme.Path
	// MaxLines bounds how many victim line anchors are armed per
	// binding (0: all).
	MaxLines int

	watched []ftl.LBA // namespace-relative
	ppns    []uint32
	buf     []byte
}

// canaryFill is the recognizable byte written to canary blocks.
func canaryFill(lba ftl.LBA) byte { return byte(lba) ^ 0x3C }

// Arm populates the victim lines of every binding (Binding.VictimEntries)
// and snapshots their translations. An entry two bindings share is armed
// once.
func (v *CanaryVictim) Arm(bindings []Binding) error {
	if v.buf == nil {
		v.buf = make([]byte, v.Dev.BlockBytes())
	}
	v.watched = v.watched[:0]
	v.ppns = v.ppns[:0]
	seen := make(map[ftl.LBA]bool)
	for _, b := range bindings {
		// Append b's entries, then filter them in place down to the
		// first sighting of each.
		n := len(v.watched)
		v.watched = b.VictimEntries(v.watched, v.NS, v.MaxLines)
		entries := v.watched[n:]
		v.watched = v.watched[:n]
		for _, rel := range entries {
			if seen[rel] {
				continue
			}
			seen[rel] = true
			for j := range v.buf {
				v.buf[j] = canaryFill(rel)
			}
			if err := v.Dev.Write(v.NS, rel, v.buf, v.Path); err != nil {
				return err
			}
			v.watched = append(v.watched, rel)
			v.ppns = append(v.ppns, uint32(v.Dev.FTL().PPNOf(v.NS.StartLBA+rel)))
		}
	}
	return nil
}

// Check re-reads every canary and compares translations.
func (v *CanaryVictim) Check() (VictimReport, error) {
	rep := VictimReport{Checked: len(v.watched)}
	for i, rel := range v.watched {
		if uint32(v.Dev.FTL().PPNOf(v.NS.StartLBA+rel)) != v.ppns[i] {
			rep.Remapped++
		}
		mapped, err := v.Dev.Read(v.NS, rel, v.buf, v.Path)
		if err != nil || !mapped {
			rep.Corrupted++
			continue
		}
		want := canaryFill(rel)
		for _, bb := range v.buf {
			if bb != want {
				rep.Corrupted++
				break
			}
		}
	}
	return rep, nil
}
