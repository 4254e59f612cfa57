package ext4

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// FsckReport summarizes a consistency check. The attack's "data
// corruption" outcome (§3.2) shows up here: a redirected metadata block
// makes the volume fail its check even when nothing crashed.
type FsckReport struct {
	InodesInUse      int
	DirsSeen         int
	FilesSeen        int
	Problems         []string
	BlocksReferenced uint64
}

func (r *FsckReport) problem(format string, args ...interface{}) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck walks the directory tree from the root, checking that every
// referenced inode is marked in-use, that block pointers are in range and
// not doubly referenced, and that extent checksums verify.
func (fs *FS) Fsck() (*FsckReport, error) {
	r := &FsckReport{}
	seenBlocks := make(map[uint32]uint32) // block -> first owner ino
	seenInodes := make(map[uint32]bool)
	if err := fs.fsckDir(RootIno, r, seenBlocks, seenInodes); err != nil {
		return r, err
	}
	r.InodesInUse = len(seenInodes)
	r.BlocksReferenced = uint64(len(seenBlocks))
	return r, nil
}

func (fs *FS) fsckDir(ino uint32, r *FsckReport, seenBlocks map[uint32]uint32, seenInodes map[uint32]bool) error {
	if seenInodes[ino] {
		return nil
	}
	seenInodes[ino] = true
	r.DirsSeen++
	var in inode
	if err := fs.readInode(ino, &in); err != nil {
		if errors.Is(err, ErrInodeChecksum) {
			r.problem("directory inode %d: %v", ino, err)
			return nil
		}
		return err
	}
	if !in.isDir() {
		r.problem("inode %d referenced as directory but is not one", ino)
		return nil
	}
	fs.checkInodeBlocks(ino, &in, r, seenBlocks)
	entries, err := fs.dirList(ino, &in)
	if err != nil {
		r.problem("directory %d unreadable: %v", ino, err)
		return nil
	}
	for _, e := range entries {
		used, err := fs.bitmapGet(fs.sb.inodeBMStart, uint64(e.Ino))
		if err != nil {
			return err
		}
		if !used {
			r.problem("entry %q references free inode %d", e.Name, e.Ino)
			continue
		}
		if e.IsDir {
			if err := fs.fsckDir(e.Ino, r, seenBlocks, seenInodes); err != nil {
				return err
			}
			continue
		}
		if seenInodes[e.Ino] {
			continue // hard link
		}
		seenInodes[e.Ino] = true
		r.FilesSeen++
		var fin inode
		if err := fs.readInode(e.Ino, &fin); err != nil {
			if errors.Is(err, ErrInodeChecksum) {
				r.problem("file inode %d: %v", e.Ino, err)
				continue
			}
			return err
		}
		if !fin.isFile() {
			r.problem("entry %q (inode %d) has invalid mode %#o", e.Name, e.Ino, fin.mode)
			continue
		}
		fs.checkInodeBlocks(e.Ino, &fin, r, seenBlocks)
	}
	return nil
}

// checkInodeBlocks validates every block referenced by the inode.
func (fs *FS) checkInodeBlocks(ino uint32, in *inode, r *FsckReport, seenBlocks map[uint32]uint32) {
	claim := func(blk uint32, what string) {
		if uint64(blk) < fs.sb.dataStart || uint64(blk) >= fs.sb.numBlocks {
			r.problem("inode %d: %s block %d out of range", ino, what, blk)
			return
		}
		if owner, dup := seenBlocks[blk]; dup {
			r.problem("inode %d: %s block %d already referenced by inode %d", ino, what, blk, owner)
			return
		}
		seenBlocks[blk] = ino
		used, err := fs.bitmapGet(fs.sb.blockBMStart, uint64(blk))
		if err == nil && !used {
			r.problem("inode %d: %s block %d not marked in use", ino, what, blk)
		}
	}
	if in.usesExtents() {
		fs.curIno = ino
		exts, err := fs.loadExtents(ino, in)
		if err != nil {
			r.problem("inode %d: extent tree unreadable: %v", ino, err)
			return
		}
		for _, e := range exts {
			for k := uint32(0); k < e.count; k++ {
				claim(e.phys+k, "extent data")
			}
		}
		entries, depth, err := rootHeader(in)
		if err == nil && depth == 1 {
			for i := 0; i < entries; i++ {
				claim(in.iblock[1+i*2+1], "extent leaf")
			}
		}
		return
	}
	for i := 0; i < NDirect; i++ {
		if in.iblock[i] != 0 {
			claim(in.iblock[i], "direct")
		}
	}
	for level, slot := range []int{idxSingle, idxDouble, idxTriple} {
		if in.iblock[slot] != 0 {
			fs.checkIndirect(ino, in.iblock[slot], level, r, claim)
		}
	}
}

func (fs *FS) checkIndirect(ino uint32, blk uint32, depth int, r *FsckReport, claim func(uint32, string)) {
	claim(blk, "indirect")
	if uint64(blk) < fs.sb.dataStart || uint64(blk) >= fs.sb.numBlocks {
		return
	}
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(uint64(blk), buf); err != nil {
		r.problem("inode %d: indirect block %d unreadable: %v", ino, blk, err)
		return
	}
	for i := 0; i < ptrsPerBlock; i++ {
		ptr := binary.LittleEndian.Uint32(buf[i*4:])
		if ptr == 0 {
			continue
		}
		if depth == 0 {
			claim(ptr, "indirect data")
		} else {
			fs.checkIndirect(ino, ptr, depth-1, r, claim)
		}
	}
}
