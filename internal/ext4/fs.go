package ext4

import (
	"fmt"
	"math/bits"
)

// FS is a mounted filesystem. It is not safe for concurrent use; all
// metadata is written through to the device immediately.
//
// The scratch blocks below keep steady-state operations allocation-free.
// Each belongs to exactly one function (buf to the inode-table and bitmap
// leaves, which call nothing that uses it), and that function never runs
// inside itself (freeIndirectTree recurses, so it owns one block per
// depth). The deepest nesting is dirWalk -> callback -> writeFileBlock ->
// bmap -> walkIndirect -> allocBlock -> bitmap, and each step of that
// chain has its own block. Reuse is safe because a BlockDevice copies
// what it is given and keeps no buffer passed to it.
type FS struct {
	dev BlockDevice
	sb  superblock
	buf []byte // inode table and bitmap reads and writes
	// dirBuf is dirWalk's block: each directory block is read into it,
	// and dirAdd's and dirRemove's callbacks rewrite it there and write
	// it back. dirInit and dirAdd's extension block reuse it, cleared,
	// when no walk runs.
	dirBuf []byte
	// dirs caches each directory's decoded blocks. A decoded block keeps
	// its own copy of the bytes it came from and is reused only while
	// every read returns those bytes.
	dirs    map[uint32]*dirBlocks
	walkBuf []byte    // walkIndirect
	freeBuf [3][]byte // freeIndirectTree, one per depth
	ioBuf   []byte    // File.ReadAt and File.WriteAt
	zero    []byte    // allocBlock's zeroing write; never written to
	// curIno is the inode whose addressing structure is being walked;
	// the extent layer needs it as the checksum key. Set by every
	// entry point that operates on a specific inode.
	curIno uint32
}

// MkfsOptions configures formatting.
type MkfsOptions struct {
	// InodeCount is the number of inodes (default: one per 8 data
	// blocks).
	InodeCount uint32
	// ForbidIndirect enables the §5 software mitigation: only
	// checksummed extent addressing is allowed.
	ForbidIndirect bool
	// MetaChecksum stamps every inode record with a CRC-32C keyed by
	// its inode number and verifies it on every read, so a rowhammer
	// redirect of an inode-table block is detected instead of silently
	// honoured (extent leaves are always checksummed).
	MetaChecksum bool
}

// Mkfs formats the device and creates the root directory.
func Mkfs(dev BlockDevice, opts MkfsOptions) error {
	if dev.BlockBytes() != BlockSize {
		return fmt.Errorf("ext4: device block size %d, want %d", dev.BlockBytes(), BlockSize)
	}
	nb := dev.NumBlocks()
	if nb < 16 {
		return fmt.Errorf("ext4: device too small (%d blocks)", nb)
	}
	inodes := opts.InodeCount
	if inodes == 0 {
		inodes = uint32(nb / 8)
		if inodes < 16 {
			inodes = 16
		}
	}
	var sb superblock
	sb.magic = Magic
	sb.numBlocks = nb
	sb.inodeCount = inodes
	sb.forbidIndirect = opts.ForbidIndirect
	sb.metaChecksum = opts.MetaChecksum
	sb.blockBMStart = 1
	sb.blockBMLen = (nb + BlockSize*8 - 1) / (BlockSize * 8)
	sb.inodeBMStart = sb.blockBMStart + sb.blockBMLen
	sb.inodeBMLen = (uint64(inodes) + BlockSize*8 - 1) / (BlockSize * 8)
	sb.itableStart = sb.inodeBMStart + sb.inodeBMLen
	sb.itableLen = (uint64(inodes)*InodeSize + BlockSize - 1) / BlockSize
	sb.dataStart = sb.itableStart + sb.itableLen
	if sb.dataStart >= nb {
		return fmt.Errorf("ext4: metadata (%d blocks) does not fit in %d blocks", sb.dataStart, nb)
	}

	buf := make([]byte, BlockSize)
	sb.encode(buf)
	if err := dev.WriteBlock(0, buf); err != nil {
		return err
	}
	// Zero the bitmaps and inode table.
	zero := make([]byte, BlockSize)
	for b := sb.blockBMStart; b < sb.dataStart; b++ {
		if err := dev.WriteBlock(b, zero); err != nil {
			return err
		}
	}
	fs := openFS(dev, sb)
	// Reserve the metadata blocks in the block bitmap.
	for b := uint64(0); b < sb.dataStart; b++ {
		if err := fs.setBlockUsed(b, true); err != nil {
			return err
		}
	}
	// Inode 0 is reserved (invalid).
	if err := fs.setInodeUsed(0, true); err != nil {
		return err
	}
	// Create the root directory.
	root := inode{
		mode:  ModeDir | 0o755,
		links: 2, // "." and the parent entry (self for root)
	}
	if err := fs.setInodeUsed(RootIno, true); err != nil {
		return err
	}
	if err := fs.writeInode(RootIno, &root); err != nil {
		return err
	}
	if err := fs.dirInit(RootIno, RootIno, &root); err != nil {
		return err
	}
	return nil
}

// Mount opens a formatted device.
func Mount(dev BlockDevice) (*FS, error) {
	if dev.BlockBytes() != BlockSize {
		return nil, fmt.Errorf("ext4: device block size %d, want %d", dev.BlockBytes(), BlockSize)
	}
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(0, buf); err != nil {
		return nil, err
	}
	var sb superblock
	if err := sb.decode(buf); err != nil {
		return nil, err
	}
	if sb.numBlocks > dev.NumBlocks() {
		return nil, fmt.Errorf("ext4: superblock claims %d blocks, device has %d", sb.numBlocks, dev.NumBlocks())
	}
	return openFS(dev, sb), nil
}

// openFS builds the in-memory handle with its scratch blocks.
func openFS(dev BlockDevice, sb superblock) *FS {
	fs := &FS{
		dev:     dev,
		sb:      sb,
		buf:     make([]byte, BlockSize),
		dirBuf:  make([]byte, BlockSize),
		dirs:    make(map[uint32]*dirBlocks),
		walkBuf: make([]byte, BlockSize),
		ioBuf:   make([]byte, BlockSize),
		zero:    make([]byte, BlockSize),
	}
	for i := range fs.freeBuf {
		fs.freeBuf[i] = make([]byte, BlockSize)
	}
	return fs
}

// ForbidsIndirect reports whether the indirect-addressing mitigation is
// active on this volume.
func (fs *FS) ForbidsIndirect() bool { return fs.sb.forbidIndirect }

// MetaChecksums reports whether inode records are CRC-protected.
func (fs *FS) MetaChecksums() bool { return fs.sb.metaChecksum }

// InodeTableRange returns the volume-relative block range [start,
// start+length) holding the inode table — the metadata surface the
// MetaChecksum mode protects, exported so attack scenarios can aim at it.
func (fs *FS) InodeTableRange() (start, length uint64) {
	return fs.sb.itableStart, fs.sb.itableLen
}

// --- inode table ---

func (fs *FS) inodeLoc(ino uint32) (blk uint64, off int, err error) {
	if ino == 0 || ino >= fs.sb.inodeCount {
		return 0, 0, fmt.Errorf("ext4: inode %d out of range", ino)
	}
	byteOff := uint64(ino) * InodeSize
	return fs.sb.itableStart + byteOff/BlockSize, int(byteOff % BlockSize), nil
}

func (fs *FS) readInode(ino uint32, in *inode) error {
	blk, off, err := fs.inodeLoc(ino)
	if err != nil {
		return err
	}
	if err := fs.dev.ReadBlock(blk, fs.buf); err != nil {
		return err
	}
	rec := fs.buf[off : off+InodeSize]
	if fs.sb.metaChecksum && !zeroRecord(rec) {
		le := binaryLE
		if le.Uint32(rec[inodeChecksumOff:]) != inodeChecksum(ino, rec) {
			return fmt.Errorf("inode %d: %w", ino, ErrInodeChecksum)
		}
	}
	in.decode(rec)
	return nil
}

func (fs *FS) writeInode(ino uint32, in *inode) error {
	blk, off, err := fs.inodeLoc(ino)
	if err != nil {
		return err
	}
	if err := fs.dev.ReadBlock(blk, fs.buf); err != nil {
		return err
	}
	rec := fs.buf[off : off+InodeSize]
	in.encode(rec)
	if fs.sb.metaChecksum {
		binaryLE.PutUint32(rec[inodeChecksumOff:], inodeChecksum(ino, rec))
	}
	return fs.dev.WriteBlock(blk, fs.buf)
}

// --- bitmaps ---

// bitmapOp reads/updates one bit in a bitmap area.
func (fs *FS) bitmapGet(start uint64, idx uint64) (bool, error) {
	blk := start + idx/(BlockSize*8)
	if err := fs.dev.ReadBlock(blk, fs.buf); err != nil {
		return false, err
	}
	byteIdx := (idx / 8) % BlockSize
	return fs.buf[byteIdx]&(1<<(idx%8)) != 0, nil
}

func (fs *FS) bitmapSet(start uint64, idx uint64, used bool) error {
	blk := start + idx/(BlockSize*8)
	if err := fs.dev.ReadBlock(blk, fs.buf); err != nil {
		return err
	}
	byteIdx := (idx / 8) % BlockSize
	if used {
		fs.buf[byteIdx] |= 1 << (idx % 8)
	} else {
		fs.buf[byteIdx] &^= 1 << (idx % 8)
	}
	return fs.dev.WriteBlock(blk, fs.buf)
}

// bitmapFindFree scans for a zero bit in [lo, hi), 64 bits at a time.
func (fs *FS) bitmapFindFree(start, lo, hi uint64) (uint64, bool, error) {
	const bitsPerBlock = BlockSize * 8
	for blkIdx := lo / bitsPerBlock; blkIdx*bitsPerBlock < hi; blkIdx++ {
		if err := fs.dev.ReadBlock(start+blkIdx, fs.buf); err != nil {
			return 0, false, err
		}
		base := blkIdx * bitsPerBlock
		w := uint64(0)
		if lo > base {
			w = (lo - base) / 64
		}
		for ; w < BlockSize/8; w++ {
			wordBase := base + w*64
			free := ^binaryLE.Uint64(fs.buf[w*8:])
			if lo > wordBase {
				free &= ^uint64(0) << (lo - wordBase)
			}
			if free == 0 {
				continue
			}
			if idx := wordBase + uint64(bits.TrailingZeros64(free)); idx < hi {
				return idx, true, nil
			}
			return 0, false, nil
		}
	}
	return 0, false, nil
}

func (fs *FS) setBlockUsed(blk uint64, used bool) error {
	return fs.bitmapSet(fs.sb.blockBMStart, blk, used)
}

func (fs *FS) setInodeUsed(ino uint32, used bool) error {
	return fs.bitmapSet(fs.sb.inodeBMStart, uint64(ino), used)
}

// allocBlock finds, marks and zeroes a free data block.
func (fs *FS) allocBlock() (uint32, error) {
	idx, ok, err := fs.bitmapFindFree(fs.sb.blockBMStart, fs.sb.dataStart, fs.sb.numBlocks)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrNoSpace
	}
	if err := fs.setBlockUsed(idx, true); err != nil {
		return 0, err
	}
	if err := fs.dev.WriteBlock(idx, fs.zero); err != nil {
		return 0, err
	}
	return uint32(idx), nil
}

// freeBlock releases a data block.
func (fs *FS) freeBlock(blk uint32) error {
	if uint64(blk) < fs.sb.dataStart || uint64(blk) >= fs.sb.numBlocks {
		return fmt.Errorf("ext4: freeing out-of-range block %d", blk)
	}
	return fs.setBlockUsed(uint64(blk), false)
}

// allocInode finds and marks a free inode.
func (fs *FS) allocInode() (uint32, error) {
	idx, ok, err := fs.bitmapFindFree(fs.sb.inodeBMStart, 1, uint64(fs.sb.inodeCount))
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrNoInodes
	}
	if err := fs.setInodeUsed(uint32(idx), true); err != nil {
		return 0, err
	}
	return uint32(idx), nil
}

// FreeDataBlocks counts unallocated data blocks (for tests and tooling).
func (fs *FS) FreeDataBlocks() (uint64, error) {
	free := uint64(0)
	for b := fs.sb.dataStart; b < fs.sb.numBlocks; b++ {
		used, err := fs.bitmapGet(fs.sb.blockBMStart, b)
		if err != nil {
			return 0, err
		}
		if !used {
			free++
		}
	}
	return free, nil
}

// DataStart returns the first data block (useful for exploit tooling that
// sprays raw device blocks).
func (fs *FS) DataStart() uint64 { return fs.sb.dataStart }

// NumBlocks returns the volume size in blocks.
func (fs *FS) NumBlocks() uint64 { return fs.sb.numBlocks }
