package ext4

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Directories hold ext2-style variable-length entries:
//
//	{ ino u32, recLen u16, nameLen u8, fileType u8, name ... }
//
// recLen always reaches the next entry (or the end of the block); deleting
// an entry merges its space into the predecessor's recLen, exactly like
// the real filesystem. Directory size is always a whole number of blocks.

const (
	direntHeader = 8
	ftypeFile    = 1
	ftypeDir     = 2
	direntMinRec = direntHeader + 4 // room for short names, keeps walks sane

	// maxDirents bounds the entries of one block: each takes at least
	// direntMinRec bytes.
	maxDirents = BlockSize / direntMinRec
	// nameSlots sizes a block's name table: a power of two above
	// maxDirents, so open addressing always finds an empty slot.
	nameSlots = 512
)

// direntAt decodes the entry at off in a directory block. The name is a
// sub-slice of blk, valid until the block is overwritten.
func direntAt(blk []byte, off int) (ino uint32, recLen int, name []byte, ftype byte, ok bool) {
	if off+direntHeader > len(blk) {
		return 0, 0, nil, 0, false
	}
	le := binary.LittleEndian
	ino = le.Uint32(blk[off:])
	recLen = int(le.Uint16(blk[off+4:]))
	nameLen := int(blk[off+6])
	ftype = blk[off+7]
	if recLen < direntMinRec || off+recLen > len(blk) || off+direntHeader+nameLen > off+recLen {
		return 0, 0, nil, 0, false
	}
	return ino, recLen, blk[off+direntHeader : off+direntHeader+nameLen], ftype, true
}

// putDirent encodes an entry.
func putDirent(blk []byte, off int, ino uint32, recLen int, name string, ftype byte) {
	le := binary.LittleEndian
	le.PutUint32(blk[off:], ino)
	le.PutUint16(blk[off+4:], uint16(recLen))
	blk[off+6] = byte(len(name))
	blk[off+7] = ftype
	copy(blk[off+direntHeader:], name)
}

// direntSpace is the aligned space an entry with an n-byte name needs.
func direntSpace(n int) int {
	return (direntHeader + n + 3) &^ 3
}

// dirent is one decoded directory entry.
type dirent struct {
	off, recLen uint16
	nameLen     uint8
	ftype       uint8
	ino         uint32
}

// used is the space the entry's own record needs: none for a dead entry.
func (e *dirent) used() int {
	if e.ino == 0 {
		return 0
	}
	return direntSpace(int(e.nameLen))
}

// dirBlock is one directory block decoded. raw is the FS's own copy of
// the bytes it was decoded from; the other fields are a pure function of
// raw, so a block read that returns the same bytes may reuse them.
type dirBlock struct {
	raw     [BlockSize]byte
	decoded bool // raw holds decoded bytes
	// ents are the entries in block order, up to the first that does
	// not decode; bad is that entry's offset, or -1.
	ents [maxDirents]dirent
	n    int
	bad  int
	// slack is the largest space left after an entry's record.
	slack int
	// others: a live entry other than "." and "..".
	others bool
	// names is an open-addressing table of the live entries: each slot
	// is the name hash's top 16 bits over the entry index plus one, 0
	// when empty. Entries go in in block order and never leave, so a
	// probe meets the first live entry with a given name first.
	names [nameSlots]uint32
}

// nameHash is 32-bit FNV-1a over a name.
func nameHash[T string | []byte](s T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// decode replaces the block's contents with blk, decoded.
func (db *dirBlock) decode(blk []byte) {
	copy(db.raw[:], blk)
	db.decoded = true
	db.n, db.bad, db.slack, db.others = 0, -1, 0, false
	clear(db.names[:])
	for off := 0; off < BlockSize; {
		ino, recLen, name, ftype, ok := direntAt(db.raw[:], off)
		if !ok {
			db.bad = off
			return
		}
		e := dirent{off: uint16(off), recLen: uint16(recLen), nameLen: uint8(len(name)), ftype: ftype, ino: ino}
		if ino != 0 {
			h := nameHash(name)
			s := h & (nameSlots - 1)
			for db.names[s] != 0 {
				s = (s + 1) & (nameSlots - 1)
			}
			db.names[s] = h&^0xFFFF | uint32(db.n+1)
			if !isDotName(name) {
				db.others = true
			}
		}
		db.slack = max(db.slack, recLen-e.used())
		db.ents[db.n] = e
		db.n++
		off += recLen
	}
}

// name returns entry i's name, a sub-slice of raw.
func (db *dirBlock) name(i int) []byte {
	off := int(db.ents[i].off) + direntHeader
	return db.raw[off : off+int(db.ents[i].nameLen)]
}

// find returns the index of the first live entry named name (whose
// nameHash is h), or -1.
func (db *dirBlock) find(name string, h uint32) int {
	for s := h & (nameSlots - 1); ; s = (s + 1) & (nameSlots - 1) {
		v := db.names[s]
		if v == 0 {
			return -1
		}
		if v&^0xFFFF != h&^0xFFFF {
			continue
		}
		if i := int(v&0xFFFF) - 1; string(db.name(i)) == name {
			return i
		}
	}
}

func isDotName(name []byte) bool {
	return string(name) == "." || string(name) == ".."
}

// dirBlocks is the decode cache of one directory, indexed by file block.
type dirBlocks struct {
	blocks []*dirBlock
}

// dirBlockAt reads file block b of a directory into fs.dirBuf and
// returns the block decoded. The cached decode is reused only when the
// device returned exactly the bytes it was made from, so the FS's own
// rewrites and blocks a flip redirected are decoded from what was read.
func (fs *FS) dirBlockAt(d *dirBlocks, in *inode, b uint64) (*dirBlock, error) {
	if err := fs.readFileBlock(in, b, fs.dirBuf); err != nil {
		return nil, err
	}
	for uint64(len(d.blocks)) <= b {
		d.blocks = append(d.blocks, new(dirBlock))
	}
	db := d.blocks[b]
	if !db.decoded || !bytes.Equal(db.raw[:], fs.dirBuf) {
		db.decode(fs.dirBuf)
	}
	return db, nil
}

// dirWalk reads a directory's blocks in order and calls fn with each one
// decoded, its bytes in fs.dirBuf; fn may rewrite fs.dirBuf and write it
// back. Returning done=true stops the walk. Otherwise a block with an
// entry that does not decode ends it with an error, as a linear walk of
// the entries would, since a block's decoded entries all precede it.
func (fs *FS) dirWalk(ino uint32, in *inode, fn func(b uint64, db *dirBlock) (done bool, err error)) error {
	fs.curIno = ino
	d := fs.dirs[ino]
	if d == nil {
		d = new(dirBlocks)
		fs.dirs[ino] = d
	}
	n := in.size / BlockSize
	for b := uint64(0); b < n; b++ {
		db, err := fs.dirBlockAt(d, in, b)
		if err != nil {
			return err
		}
		if done, err := fn(b, db); done || err != nil {
			return err
		}
		if db.bad >= 0 {
			return fmt.Errorf("ext4: corrupt directory %d (block %d, offset %d)", ino, b, db.bad)
		}
	}
	return nil
}

// dirInit writes the initial "." and ".." entries of a new directory.
func (fs *FS) dirInit(ino, parent uint32, in *inode) error {
	fs.curIno = ino
	blk := fs.dirBuf
	clear(blk)
	putDirent(blk, 0, ino, 12, ".", ftypeDir)
	putDirent(blk, 12, parent, BlockSize-12, "..", ftypeDir)
	if err := fs.writeFileBlock(in, 0, blk); err != nil {
		return err
	}
	in.size = BlockSize
	return fs.writeInode(ino, in)
}

// dirLookup finds name in the directory, returning its inode number.
func (fs *FS) dirLookup(ino uint32, in *inode, name string) (uint32, error) {
	h := nameHash(name)
	var found uint32
	err := fs.dirWalk(ino, in, func(_ uint64, db *dirBlock) (bool, error) {
		if i := db.find(name, h); i >= 0 {
			found = db.ents[i].ino
			return true, nil
		}
		return false, nil
	})
	if err != nil {
		return 0, err
	}
	if found == 0 {
		return 0, ErrNotFound
	}
	return found, nil
}

// dirAdd inserts an entry after the first entry with room for it,
// extending the directory by a block if none has.
func (fs *FS) dirAdd(ino uint32, in *inode, name string, child uint32, ftype byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	need := direntSpace(len(name))
	blk := fs.dirBuf
	inserted := false
	err := fs.dirWalk(ino, in, func(b uint64, db *dirBlock) (bool, error) {
		if db.slack < need {
			return false, nil
		}
		for i := range db.ents[:db.n] {
			e := &db.ents[i]
			used, off, recLen := e.used(), int(e.off), int(e.recLen)
			if recLen-used < need {
				continue
			}
			if e.ino != 0 {
				// Split: shrink the live entry (only its recLen
				// changes), append the new one.
				binary.LittleEndian.PutUint16(blk[off+4:], uint16(used))
				putDirent(blk, off+used, child, recLen-used, name, ftype)
			} else {
				putDirent(blk, off, child, recLen, name, ftype)
			}
			break
		}
		inserted = true
		return true, fs.writeFileBlock(in, b, blk)
	})
	if err != nil || inserted {
		return err
	}
	// Extend with a fresh block holding just this entry.
	clear(blk)
	putDirent(blk, 0, child, BlockSize, name, ftype)
	if err := fs.writeFileBlock(in, in.size/BlockSize, blk); err != nil {
		return err
	}
	in.size += BlockSize
	return fs.writeInode(ino, in)
}

// dirRemove deletes name's entry by merging it into its predecessor (or
// zeroing its inode when it leads a block).
func (fs *FS) dirRemove(ino uint32, in *inode, name string) error {
	h := nameHash(name)
	blk := fs.dirBuf
	removed := false
	err := fs.dirWalk(ino, in, func(b uint64, db *dirBlock) (bool, error) {
		i := db.find(name, h)
		if i < 0 {
			return false, nil
		}
		if i > 0 {
			prev := &db.ents[i-1]
			binary.LittleEndian.PutUint16(blk[prev.off+4:], prev.recLen+db.ents[i].recLen)
		} else {
			binary.LittleEndian.PutUint32(blk[db.ents[i].off:], 0)
		}
		removed = true
		return true, fs.writeFileBlock(in, b, blk)
	})
	if err != nil {
		return err
	}
	if !removed {
		return ErrNotFound
	}
	return nil
}

// dirIsEmpty reports whether a directory holds only "." and "..".
func (fs *FS) dirIsEmpty(ino uint32, in *inode) (bool, error) {
	empty := true
	err := fs.dirWalk(ino, in, func(_ uint64, db *dirBlock) (bool, error) {
		empty = !db.others
		return db.others, nil
	})
	return empty, err
}

// dirList returns the live entries (excluding "." and ".."), and on an
// error those listed before it.
func (fs *FS) dirList(ino uint32, in *inode) ([]DirEntry, error) {
	var out []DirEntry
	err := fs.dirWalk(ino, in, func(_ uint64, db *dirBlock) (bool, error) {
		for i := range db.ents[:db.n] {
			e := &db.ents[i]
			if name := db.name(i); e.ino != 0 && !isDotName(name) {
				out = append(out, DirEntry{Ino: e.ino, Name: string(name), IsDir: e.ftype == ftypeDir})
			}
		}
		return false, nil
	})
	return out, err
}
