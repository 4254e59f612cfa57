package victims

import (
	"errors"
	"fmt"
	"strings"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/ext4"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// FSVictim is the filesystem victim: Arm formats the victim namespace
// (optionally journaled and metadata-checksummed), creates probe files
// in both addressing modes, and snapshots the ground-truth translations
// of every probe block; Check re-reads everything and classifies each
// file as clean, detected, or silently corrupted. With MetaChecksum +
// Journal it is the §5 "checksumming filesystem" — the scorecard shows
// which corruptions the integrity machinery catches and which it
// provably cannot (data-block redirects, which no metadata checksum
// covers). Its volume's traffic takes nvme.PathDirect.
type FSVictim struct {
	Dev *nvme.Device
	NS  *nvme.Namespace
	// Journal wraps the volume in the write-ahead journal
	// (ext4.WrapJournal); MetaChecksum enables inode CRCs.
	Journal      bool
	MetaChecksum bool
	// Obs, when non-nil, receives the EvVerdict event per Check.
	Obs *obs.Registry

	fs     *ext4.FS
	jd     *ext4.JournalDevice
	paths  []string
	blocks [][]ftl.LBA // per file: volume blocks (== namespace LBAs)
	ppns   [][]uint32  // per file: armed translations of those blocks
	detail FSDetail
}

// FSDetail is the classification Check produces, finer-grained than the
// generic VictimReport.
type FSDetail struct {
	// Clean files read back exactly as written.
	Clean int
	// Detected files failed loudly: an inode/extent checksum mismatch
	// or a corrupt-translation device error.
	Detected int
	// Silent files came back wrong with no error at all — the paper's
	// information-leak/corruption outcome the checksums exist to stop.
	Silent int
	// Relocated blocks moved to a new physical page with content
	// intact (GC churn, not corruption).
	Relocated int
	// FsckProblems is the volume-level check's problem count;
	// FsckChecksumOnly reports whether every problem was a detected
	// checksum error (the "detected-and-reported" outcome).
	FsckProblems     int
	FsckChecksumOnly bool
}

func (d FSDetail) String() string {
	return fmt.Sprintf("clean=%d detected=%d silent=%d fsck_problems=%d",
		d.Clean, d.Detected, d.Silent, d.FsckProblems)
}

// The FS victim's probe set: probeFiles files of probeBlocks blocks
// each. Even indices use checksummed extent addressing, odd indices the
// unprotected indirect scheme.
const (
	probeFiles  = 8
	probeBlocks = 4
)

// probeFill is the deterministic content byte for file i, block b,
// offset j.
func probeFill(i, b, j int) byte {
	return byte(i*131+b*31+j*7) ^ 0xA5
}

// Arm formats the namespace and creates the probe files. Bindings are
// not consulted: like the paper's spray, the probe set covers the
// filesystem wholesale and the hammer decides what actually breaks.
func (v *FSVictim) Arm([]attack.Binding) error {
	var dev ext4.BlockDevice = &cloud.NSBlockDevice{Dev: v.Dev, NS: v.NS, Path: nvme.PathDirect}
	if v.Journal {
		jd, err := ext4.WrapJournal(dev, 0)
		if err != nil {
			return err
		}
		v.jd = jd
		dev = jd
	}
	if err := ext4.Mkfs(dev, ext4.MkfsOptions{
		InodeCount:   256,
		MetaChecksum: v.MetaChecksum,
	}); err != nil {
		return err
	}
	fs, err := ext4.Mount(dev)
	if err != nil {
		return err
	}
	v.fs = fs
	v.paths = v.paths[:0]
	v.blocks = v.blocks[:0]
	v.ppns = v.ppns[:0]
	buf := make([]byte, ext4.BlockSize)
	files := make([]*ext4.File, 0, probeFiles)
	for i := 0; i < probeFiles; i++ {
		path := fmt.Sprintf("/probe%03d", i)
		f, err := fs.Create(path, ext4.Root, ext4.CreateOptions{
			Mode:        0o600,
			UseIndirect: i%2 == 1,
		})
		if err != nil {
			return err
		}
		for b := 0; b < probeBlocks; b++ {
			for j := range buf {
				buf[j] = probeFill(i, b, j)
			}
			if _, err := f.WriteAt(buf, uint64(b)*ext4.BlockSize); err != nil {
				return err
			}
		}
		v.paths = append(v.paths, path)
		files = append(files, f)
	}
	// Settle the volume before snapshotting ground truth: the journal's
	// final commit checkpoints every pending block, which rewrites home
	// blocks through fresh physical pages.
	if v.jd != nil {
		if err := v.jd.Commit(); err != nil {
			return err
		}
	}
	for _, f := range files {
		var lbas []ftl.LBA
		var ppns []uint32
		for b := 0; b < probeBlocks; b++ {
			blk, err := f.MapBlock(uint64(b))
			if err != nil {
				return err
			}
			lbas = append(lbas, ftl.LBA(blk))
			ppns = append(ppns, uint32(v.Dev.FTL().PPNOf(v.NS.StartLBA+ftl.LBA(blk))))
		}
		v.blocks = append(v.blocks, lbas)
		v.ppns = append(v.ppns, ppns)
	}
	return nil
}

// MetadataLBA returns a namespace-relative LBA holding protected
// metadata (the first inode-table block) — the place to aim a flip when
// asking whether checksumming catches it. Valid after Arm.
func (v *FSVictim) MetadataLBA() (ftl.LBA, error) {
	if v.fs == nil {
		return 0, errors.New("victims: FSVictim not armed")
	}
	start, _ := v.fs.InodeTableRange()
	return ftl.LBA(start), nil
}

// DataLBA returns a namespace-relative LBA holding probe file data —
// the surface no metadata checksum covers. Valid after Arm.
func (v *FSVictim) DataLBA() (ftl.LBA, error) {
	if len(v.blocks) == 0 || len(v.blocks[0]) == 0 {
		return 0, errors.New("victims: FSVictim not armed")
	}
	return v.blocks[0][0], nil
}

// Detail returns the classification of the last Check.
func (v *FSVictim) Detail() FSDetail { return v.detail }

// isDetectedErr classifies loud failures: integrity checksums and
// corrupt-translation device errors both stop the leak.
func isDetectedErr(err error) bool {
	if errors.Is(err, ext4.ErrInodeChecksum) || errors.Is(err, ext4.ErrChecksum) {
		return true
	}
	var cm *ftl.CorruptMappingError
	return errors.As(err, &cm)
}

// Check re-reads every probe file and runs fsck, classifying what the
// hammer (or injected flip) did.
func (v *FSVictim) Check() (attack.VictimReport, error) {
	if v.fs == nil {
		return attack.VictimReport{}, errors.New("victims: FSVictim not armed")
	}
	var det FSDetail
	rep := attack.VictimReport{Checked: len(v.paths)}
	buf := make([]byte, ext4.BlockSize)
	for i, path := range v.paths {
		// Ground truth first: did any of this file's translations move?
		moved := false
		for b, lba := range v.blocks[i] {
			if uint32(v.Dev.FTL().PPNOf(v.NS.StartLBA+lba)) != v.ppns[i][b] {
				moved = true
			}
		}
		if moved {
			rep.Remapped++
		}
		verdict := "clean"
		f, err := v.fs.Open(path, ext4.Root, false)
		if err != nil {
			if isDetectedErr(err) {
				verdict = "detected"
			} else {
				verdict = "silent" // file vanished or unreadable, unflagged
			}
		} else {
		blocks:
			for b := 0; b < probeBlocks; b++ {
				if _, err := f.ReadAt(buf, uint64(b)*ext4.BlockSize); err != nil {
					if isDetectedErr(err) {
						verdict = "detected"
					} else {
						verdict = "silent"
					}
					break
				}
				for j, got := range buf {
					if got != probeFill(i, b, j) {
						verdict = "silent"
						break blocks
					}
				}
			}
		}
		switch verdict {
		case "clean":
			det.Clean++
			if moved {
				det.Relocated++
			}
		case "detected":
			det.Detected++
			rep.Corrupted++
		case "silent":
			det.Silent++
			rep.Corrupted++
		}
	}
	fsck, err := v.fs.Fsck()
	if err != nil {
		// A check that cannot even complete is itself a loud volume-level
		// signal; record it rather than failing the run.
		det.FsckProblems++
		det.FsckChecksumOnly = isDetectedErr(err)
	} else {
		det.FsckProblems = len(fsck.Problems)
		det.FsckChecksumOnly = len(fsck.Problems) > 0
		for _, p := range fsck.Problems {
			if !strings.Contains(p, "checksum") {
				det.FsckChecksumOnly = false
			}
		}
	}
	v.detail = det
	emitVerdict(v.Obs, v.Dev, rep.Checked, rep.Corrupted, det.Detected)
	return rep, nil
}
