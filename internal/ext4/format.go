package ext4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Magic identifies a formatted volume.
const Magic = 0xF7124A21

// InodeSize is the on-disk inode record size.
const InodeSize = 128

// RootIno is the root directory's inode number. Inode 0 is invalid.
const RootIno = 1

// File mode bits (subset of POSIX).
const (
	ModePerm   = 0o777
	ModeSetUID = 0o4000
	ModeDir    = 0o40000
	ModeFile   = 0o100000
)

// Inode flags.
const (
	// FlagExtents selects extent-tree addressing (checksummed).
	// Without it the inode uses direct/indirect addressing.
	FlagExtents = 1 << 0
)

// Addressing constants.
const (
	// NDirect is the number of direct block pointers in an inode.
	NDirect = 12
	// iblockSlots is the number of u32 slots in the inode block area
	// (12 direct + single + double + triple indirect).
	iblockSlots = 15
	idxSingle   = 12
	idxDouble   = 13
	idxTriple   = 14
)

// Common errors.
var (
	ErrNotFormatted = errors.New("ext4: device is not formatted")
	ErrExists       = errors.New("ext4: file exists")
	ErrNotFound     = errors.New("ext4: no such file or directory")
	ErrNotDir       = errors.New("ext4: not a directory")
	ErrIsDir        = errors.New("ext4: is a directory")
	ErrPerm         = errors.New("ext4: permission denied")
	ErrNoSpace      = errors.New("ext4: no space left on device")
	ErrNoInodes     = errors.New("ext4: out of inodes")
	ErrNotEmpty     = errors.New("ext4: directory not empty")
	ErrNameTooLong  = errors.New("ext4: name too long")
	ErrChecksum     = errors.New("ext4: extent tree checksum mismatch")
	ErrIndirectOff  = errors.New("ext4: indirect addressing disabled by policy")
	// ErrInodeChecksum reports an inode record whose CRC-32C does not
	// match — a detected metadata corruption (MetaChecksum volumes only).
	ErrInodeChecksum = errors.New("ext4: inode checksum mismatch")
)

// BlockDevice is the storage a filesystem lives on. Block addresses are
// volume-relative.
//
// An implementation keeps no buffer it is given: WriteBlock copies data
// before it returns and leaves it unchanged, and ReadBlock only fills buf.
// The filesystem relies on this to reuse its scratch blocks from call to
// call (see FS).
type BlockDevice interface {
	// ReadBlock fills buf (one block) from block lba and keeps no
	// reference to buf.
	ReadBlock(lba uint64, buf []byte) error
	// WriteBlock stores a copy of one block at lba; data is neither
	// modified nor kept.
	WriteBlock(lba uint64, data []byte) error
	// NumBlocks is the volume size in blocks.
	NumBlocks() uint64
	// BlockBytes is the block size (must be 4096).
	BlockBytes() int
}

// BlockSize is the only supported filesystem block size.
const BlockSize = 4096

// ptrsPerBlock is the fan-out of an indirect block.
const ptrsPerBlock = BlockSize / 4

// superblock is the on-disk volume header (block 0).
type superblock struct {
	magic        uint32
	numBlocks    uint64
	inodeCount   uint32
	blockBMStart uint64
	blockBMLen   uint64
	inodeBMStart uint64
	inodeBMLen   uint64
	itableStart  uint64
	itableLen    uint64
	dataStart    uint64
	// forbidIndirect is the §5 software mitigation: refuse to create
	// indirect-addressed files.
	forbidIndirect bool
	// metaChecksum enables CRC-32C protection of inode records (extent
	// leaves are always checksummed): the §5 "does checksumming stop the
	// leak?" configuration.
	metaChecksum bool
}

func (sb *superblock) encode(buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	le := binary.LittleEndian
	le.PutUint32(buf[0:], sb.magic)
	le.PutUint64(buf[4:], sb.numBlocks)
	le.PutUint32(buf[12:], sb.inodeCount)
	le.PutUint64(buf[16:], sb.blockBMStart)
	le.PutUint64(buf[24:], sb.blockBMLen)
	le.PutUint64(buf[32:], sb.inodeBMStart)
	le.PutUint64(buf[40:], sb.inodeBMLen)
	le.PutUint64(buf[48:], sb.itableStart)
	le.PutUint64(buf[56:], sb.itableLen)
	le.PutUint64(buf[64:], sb.dataStart)
	if sb.forbidIndirect {
		buf[72] = 1
	}
	if sb.metaChecksum {
		buf[73] = 1
	}
}

func (sb *superblock) decode(buf []byte) error {
	le := binary.LittleEndian
	sb.magic = le.Uint32(buf[0:])
	if sb.magic != Magic {
		return ErrNotFormatted
	}
	sb.numBlocks = le.Uint64(buf[4:])
	sb.inodeCount = le.Uint32(buf[12:])
	sb.blockBMStart = le.Uint64(buf[16:])
	sb.blockBMLen = le.Uint64(buf[24:])
	sb.inodeBMStart = le.Uint64(buf[32:])
	sb.inodeBMLen = le.Uint64(buf[40:])
	sb.itableStart = le.Uint64(buf[48:])
	sb.itableLen = le.Uint64(buf[56:])
	sb.dataStart = le.Uint64(buf[64:])
	sb.forbidIndirect = buf[72] == 1
	sb.metaChecksum = buf[73] == 1
	return nil
}

// binaryLE is the byte order of every on-disk structure.
var binaryLE = binary.LittleEndian

// inodeChecksumOff is where the CRC-32C of an inode record is stored:
// the last 4 bytes, computed over the first inodeChecksumOff bytes keyed
// by the inode number (mirroring the extent-leaf scheme).
const inodeChecksumOff = InodeSize - 4

// inodeChecksum computes the record checksum for MetaChecksum volumes.
func inodeChecksum(ino uint32, rec []byte) uint32 {
	var seed [4]byte
	binary.LittleEndian.PutUint32(seed[:], ino)
	crc := crc32.Update(0, crcTable, seed[:])
	return crc32.Update(crc, crcTable, rec[:inodeChecksumOff])
}

// zeroRecord reports an all-zero inode record (a never-written table
// slot, which carries no checksum).
func zeroRecord(rec []byte) bool {
	for _, b := range rec {
		if b != 0 {
			return false
		}
	}
	return true
}

// inode is the in-memory form of an on-disk inode.
type inode struct {
	mode  uint16
	uid   uint16
	gid   uint16
	flags uint16
	size  uint64
	links uint16
	// iblock is the 60-byte block-pointer area: direct/indirect
	// pointers, or the extent root when FlagExtents is set.
	iblock [iblockSlots]uint32
}

func (in *inode) isDir() bool  { return in.mode&ModeDir != 0 }
func (in *inode) isFile() bool { return in.mode&ModeFile != 0 }
func (in *inode) usesExtents() bool {
	return in.flags&FlagExtents != 0
}

// encode writes the inode record at buf (InodeSize bytes).
func (in *inode) encode(buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	le := binary.LittleEndian
	le.PutUint16(buf[0:], in.mode)
	le.PutUint16(buf[2:], in.uid)
	le.PutUint16(buf[4:], in.gid)
	le.PutUint16(buf[6:], in.flags)
	le.PutUint64(buf[8:], in.size)
	le.PutUint16(buf[16:], in.links)
	for i, p := range in.iblock {
		le.PutUint32(buf[20+4*i:], p)
	}
}

func (in *inode) decode(buf []byte) {
	le := binary.LittleEndian
	in.mode = le.Uint16(buf[0:])
	in.uid = le.Uint16(buf[2:])
	in.gid = le.Uint16(buf[4:])
	in.flags = le.Uint16(buf[6:])
	in.size = le.Uint64(buf[8:])
	in.links = le.Uint16(buf[16:])
	for i := range in.iblock {
		in.iblock[i] = le.Uint32(buf[20+4*i:])
	}
}

// Cred identifies the caller for permission checks. UID 0 is root.
type Cred struct {
	UID uint16
	GID uint16
}

// Root is the superuser credential.
var Root = Cred{UID: 0, GID: 0}

// access checks a classic UNIX rwx permission (r=4, w=2, x=1).
func (in *inode) access(c Cred, want uint16) bool {
	if c.UID == 0 {
		return true
	}
	perm := in.mode & ModePerm
	var bits uint16
	switch {
	case uint16(c.UID) == in.uid:
		bits = (perm >> 6) & 7
	case uint16(c.GID) == in.gid:
		bits = (perm >> 3) & 7
	default:
		bits = perm & 7
	}
	return bits&want == want
}

// Stat describes a file, as returned by FS.Stat.
type Stat struct {
	Ino   uint32
	Mode  uint16
	UID   uint16
	GID   uint16
	Size  uint64
	Links uint16
	// Extents reports whether the file uses checksummed extent
	// addressing.
	Extents bool
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Ino   uint32
	Name  string
	IsDir bool
}

func checkName(name string) error {
	if len(name) == 0 || len(name) > 60 {
		return ErrNameTooLong
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fmt.Errorf("ext4: invalid character in name %q", name)
		}
	}
	return nil
}
