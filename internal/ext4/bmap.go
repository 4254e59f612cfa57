package ext4

import (
	"encoding/binary"
	"fmt"
)

// bmap resolves a file-relative block number to a physical block, walking
// the inode's addressing structure. With alloc set, missing blocks (holes)
// and missing intermediate indirect blocks are allocated. A return of 0
// without error means "hole" (only possible when alloc is false).
//
// For indirect-addressed inodes every level is a raw, unchecksummed read
// of a pointer block from the device — the §4.2 attack surface. Extent
// inodes dispatch to the checksummed extent tree instead.
func (fs *FS) bmap(in *inode, fileBlk uint64, alloc bool) (uint32, error) {
	if in.usesExtents() {
		return fs.extentBmap(in, fileBlk, alloc)
	}
	return fs.indirectBmap(in, fileBlk, alloc)
}

// indirectBmap implements the classic 12-direct + single/double/triple
// indirect scheme.
func (fs *FS) indirectBmap(in *inode, fileBlk uint64, alloc bool) (uint32, error) {
	const p1 = uint64(ptrsPerBlock)
	p2 := p1 * p1
	p3 := p2 * p1
	switch {
	case fileBlk < NDirect:
		return fs.leafPtr(&in.iblock[fileBlk], alloc)
	case fileBlk < NDirect+p1:
		return fs.walkIndirect(&in.iblock[idxSingle], []uint64{fileBlk - NDirect}, alloc)
	case fileBlk < NDirect+p1+p2:
		rel := fileBlk - NDirect - p1
		return fs.walkIndirect(&in.iblock[idxDouble], []uint64{rel / p1, rel % p1}, alloc)
	case fileBlk < NDirect+p1+p2+p3:
		rel := fileBlk - NDirect - p1 - p2
		return fs.walkIndirect(&in.iblock[idxTriple], []uint64{rel / p2, (rel / p1) % p1, rel % p1}, alloc)
	default:
		return 0, fmt.Errorf("ext4: file block %d beyond maximum file size", fileBlk)
	}
}

// leafPtr resolves (and optionally allocates) a direct pointer slot.
func (fs *FS) leafPtr(slot *uint32, alloc bool) (uint32, error) {
	if *slot != 0 || !alloc {
		return *slot, nil
	}
	blk, err := fs.allocBlock()
	if err != nil {
		return 0, err
	}
	*slot = blk
	return blk, nil
}

// walkIndirect descends a chain of indirect blocks. idxs holds the pointer
// index at each level, outermost first. The root slot lives in the inode;
// deeper slots live in on-device pointer blocks that are read (and written
// back on allocation) as raw arrays.
func (fs *FS) walkIndirect(rootSlot *uint32, idxs []uint64, alloc bool) (uint32, error) {
	cur := *rootSlot
	if cur == 0 {
		if !alloc {
			return 0, nil
		}
		blk, err := fs.allocBlock()
		if err != nil {
			return 0, err
		}
		*rootSlot = blk
		cur = blk
	}
	buf := fs.walkBuf
	for level, idx := range idxs {
		if err := fs.dev.ReadBlock(uint64(cur), buf); err != nil {
			return 0, err
		}
		ptr := binary.LittleEndian.Uint32(buf[idx*4:])
		last := level == len(idxs)-1
		if ptr == 0 {
			if !alloc {
				return 0, nil
			}
			blk, err := fs.allocBlock()
			if err != nil {
				return 0, err
			}
			binary.LittleEndian.PutUint32(buf[idx*4:], blk)
			if err := fs.dev.WriteBlock(uint64(cur), buf); err != nil {
				return 0, err
			}
			ptr = blk
		}
		if last {
			return ptr, nil
		}
		cur = ptr
	}
	return cur, nil
}

// freeInodeBlocks releases every data and metadata block of the inode.
func (fs *FS) freeInodeBlocks(in *inode) error {
	if in.usesExtents() {
		return fs.extentFreeAll(in)
	}
	for i := 0; i < NDirect; i++ {
		if in.iblock[i] != 0 {
			if err := fs.freeBlock(in.iblock[i]); err != nil {
				return err
			}
			in.iblock[i] = 0
		}
	}
	for level, slot := range []int{idxSingle, idxDouble, idxTriple} {
		if in.iblock[slot] != 0 {
			if err := fs.freeIndirectTree(in.iblock[slot], level); err != nil {
				return err
			}
			in.iblock[slot] = 0
		}
	}
	in.size = 0
	return nil
}

// freeIndirectTree releases a pointer block and, recursively, everything
// below it. depth 0 = single indirect (pointers to data); each depth reads
// into its own scratch block, so a recursive call leaves its caller's
// pointer array intact.
func (fs *FS) freeIndirectTree(blk uint32, depth int) error {
	buf := fs.freeBuf[depth]
	if err := fs.dev.ReadBlock(uint64(blk), buf); err != nil {
		return err
	}
	for i := 0; i < ptrsPerBlock; i++ {
		ptr := binary.LittleEndian.Uint32(buf[i*4:])
		if ptr == 0 {
			continue
		}
		// Defensive: a corrupted (e.g. rowhammered) pointer may be out
		// of range; skip rather than corrupt the bitmap.
		if uint64(ptr) < fs.sb.dataStart || uint64(ptr) >= fs.sb.numBlocks {
			continue
		}
		if depth == 0 {
			if err := fs.freeBlock(ptr); err != nil {
				return err
			}
		} else {
			if err := fs.freeIndirectTree(ptr, depth-1); err != nil {
				return err
			}
		}
	}
	return fs.freeBlock(blk)
}

// readFileBlock reads one block of file data into buf, zero-filling holes.
func (fs *FS) readFileBlock(in *inode, fileBlk uint64, buf []byte) error {
	phys, err := fs.bmap(in, fileBlk, false)
	if err != nil {
		return err
	}
	if phys == 0 {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	return fs.dev.ReadBlock(uint64(phys), buf)
}

// writeFileBlock writes one block of file data, allocating as needed.
func (fs *FS) writeFileBlock(in *inode, fileBlk uint64, data []byte) error {
	phys, err := fs.bmap(in, fileBlk, true)
	if err != nil {
		return err
	}
	return fs.dev.WriteBlock(uint64(phys), data)
}
