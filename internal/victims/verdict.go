package victims

import (
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// EvVerdict summarizes one victim Check: A = units checked, B = units
// with attacker-visible corruption, C = units where the corruption was
// DETECTED (checksum mismatch or loud device error) rather than silent.
const EvVerdict = "victims.verdict"

func init() {
	obs.RegisterEventKind(EvVerdict, "checked", "corrupted", "detected")
}

func emitVerdict(reg *obs.Registry, dev *nvme.Device, checked, corrupted, detected int) {
	if reg != nil {
		reg.Emit(uint64(dev.Clock().Now()), EvVerdict,
			int64(checked), int64(corrupted), int64(detected))
	}
}
