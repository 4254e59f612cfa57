package ext4

import (
	"fmt"
	"strings"
)

// permRead, permWrite, permExec are the rwx access-check masks.
const (
	permRead  = 4
	permWrite = 2
	permExec  = 1
)

// resolve walks an absolute path to its inode, reading it into in and
// enforcing execute permission on every traversed directory. Empty and
// "." components are skipped; ".." is a name looked up like any other.
func (fs *FS) resolve(path string, cred Cred, in *inode) (uint32, error) {
	if !strings.HasPrefix(path, "/") {
		return 0, fmt.Errorf("ext4: path %q is not absolute", path)
	}
	ino := uint32(RootIno)
	if err := fs.readInode(ino, in); err != nil {
		return 0, err
	}
	for rest := path; rest != ""; {
		c := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			c, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if c == "" || c == "." {
			continue
		}
		if !in.isDir() {
			return 0, ErrNotDir
		}
		if !in.access(cred, permExec) {
			return 0, ErrPerm
		}
		next, err := fs.dirLookup(ino, in, c)
		if err != nil {
			return 0, err
		}
		ino = next
		if err := fs.readInode(ino, in); err != nil {
			return 0, err
		}
	}
	return ino, nil
}

// resolveParent resolves the directory containing path's leaf into dir
// and returns the leaf's name: the last component resolve would walk.
func (fs *FS) resolveParent(path string, cred Cred, dir *inode) (uint32, string, error) {
	if !strings.HasPrefix(path, "/") {
		return 0, "", fmt.Errorf("ext4: path %q is not absolute", path)
	}
	for end := len(path); end > 0; {
		start := strings.LastIndexByte(path[:end], '/') + 1
		if leaf := path[start:end]; leaf != "" && leaf != "." {
			ino, err := fs.resolve(path[:start], cred, dir)
			if err != nil {
				return 0, "", err
			}
			if !dir.isDir() {
				return 0, "", ErrNotDir
			}
			return ino, leaf, nil
		}
		end = start - 1
	}
	return 0, "", fmt.Errorf("ext4: cannot operate on /")
}

// CreateOptions tunes file creation.
type CreateOptions struct {
	// UseIndirect selects legacy direct/indirect addressing for this
	// file (no extent checksums) — the property the §4.2 exploit needs.
	// Rejected when the volume forbids it.
	UseIndirect bool
	// Mode is the permission bits (plus optionally ModeSetUID).
	Mode uint16
}

// Create makes a new regular file. The caller needs write+execute on the
// containing directory.
func (fs *FS) Create(path string, cred Cred, opts CreateOptions) (*File, error) {
	var dir inode
	dirIn := &dir
	dirIno, name, err := fs.resolveParent(path, cred, dirIn)
	if err != nil {
		return nil, err
	}
	if !dirIn.access(cred, permWrite|permExec) {
		return nil, ErrPerm
	}
	if _, err := fs.dirLookup(dirIno, dirIn, name); err == nil {
		return nil, ErrExists
	} else if err != ErrNotFound {
		return nil, err
	}
	if opts.UseIndirect && fs.sb.forbidIndirect {
		return nil, ErrIndirectOff
	}
	ino, err := fs.allocInode()
	if err != nil {
		return nil, err
	}
	in := inode{
		mode:  ModeFile | (opts.Mode &^ ModeDir),
		uid:   cred.UID,
		gid:   cred.GID,
		links: 1,
	}
	if !opts.UseIndirect {
		extentInit(&in)
	}
	if err := fs.writeInode(ino, &in); err != nil {
		return nil, err
	}
	if err := fs.dirAdd(dirIno, dirIn, name, ino, ftypeFile); err != nil {
		return nil, err
	}
	return &File{fs: fs, ino: ino, cred: cred, writable: true}, nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(path string, cred Cred, mode uint16) error {
	var dir inode
	dirIn := &dir
	dirIno, name, err := fs.resolveParent(path, cred, dirIn)
	if err != nil {
		return err
	}
	if !dirIn.access(cred, permWrite|permExec) {
		return ErrPerm
	}
	if _, err := fs.dirLookup(dirIno, dirIn, name); err == nil {
		return ErrExists
	} else if err != ErrNotFound {
		return err
	}
	ino, err := fs.allocInode()
	if err != nil {
		return err
	}
	in := inode{
		mode:  ModeDir | (mode & ModePerm),
		uid:   cred.UID,
		gid:   cred.GID,
		links: 2,
	}
	if err := fs.writeInode(ino, &in); err != nil {
		return err
	}
	if err := fs.dirInit(ino, dirIno, &in); err != nil {
		return err
	}
	if err := fs.dirAdd(dirIno, dirIn, name, ino, ftypeDir); err != nil {
		return err
	}
	dirIn.links++
	return fs.writeInode(dirIno, dirIn)
}

// Open opens an existing regular file. Write access requires the w bit.
func (fs *FS) Open(path string, cred Cred, write bool) (*File, error) {
	var node inode
	in := &node
	ino, err := fs.resolve(path, cred, in)
	if err != nil {
		return nil, err
	}
	if in.isDir() {
		return nil, ErrIsDir
	}
	want := uint16(permRead)
	if write {
		want |= permWrite
	}
	if !in.access(cred, want) {
		return nil, ErrPerm
	}
	return &File{fs: fs, ino: ino, cred: cred, writable: write}, nil
}

// Unlink removes a file. Its blocks are freed when the last link drops.
func (fs *FS) Unlink(path string, cred Cred) error {
	var dir inode
	dirIn := &dir
	dirIno, name, err := fs.resolveParent(path, cred, dirIn)
	if err != nil {
		return err
	}
	if !dirIn.access(cred, permWrite|permExec) {
		return ErrPerm
	}
	ino, err := fs.dirLookup(dirIno, dirIn, name)
	if err != nil {
		return err
	}
	var in inode
	if err := fs.readInode(ino, &in); err != nil {
		return err
	}
	if in.isDir() {
		return ErrIsDir
	}
	if err := fs.dirRemove(dirIno, dirIn, name); err != nil {
		return err
	}
	in.links--
	if in.links == 0 {
		fs.curIno = ino
		if err := fs.freeInodeBlocks(&in); err != nil {
			return err
		}
		if err := fs.setInodeUsed(ino, false); err != nil {
			return err
		}
		in = inode{}
	}
	return fs.writeInode(ino, &in)
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(path string, cred Cred) error {
	var dir inode
	dirIn := &dir
	dirIno, name, err := fs.resolveParent(path, cred, dirIn)
	if err != nil {
		return err
	}
	if !dirIn.access(cred, permWrite|permExec) {
		return ErrPerm
	}
	ino, err := fs.dirLookup(dirIno, dirIn, name)
	if err != nil {
		return err
	}
	var in inode
	if err := fs.readInode(ino, &in); err != nil {
		return err
	}
	if !in.isDir() {
		return ErrNotDir
	}
	empty, err := fs.dirIsEmpty(ino, &in)
	if err != nil {
		return err
	}
	if !empty {
		return ErrNotEmpty
	}
	if err := fs.dirRemove(dirIno, dirIn, name); err != nil {
		return err
	}
	fs.curIno = ino
	if err := fs.freeInodeBlocks(&in); err != nil {
		return err
	}
	if err := fs.setInodeUsed(ino, false); err != nil {
		return err
	}
	if err := fs.writeInode(ino, &inode{}); err != nil {
		return err
	}
	dirIn.links--
	return fs.writeInode(dirIno, dirIn)
}

// ReadDir lists a directory.
func (fs *FS) ReadDir(path string, cred Cred) ([]DirEntry, error) {
	var node inode
	in := &node
	ino, err := fs.resolve(path, cred, in)
	if err != nil {
		return nil, err
	}
	if !in.isDir() {
		return nil, ErrNotDir
	}
	if !in.access(cred, permRead) {
		return nil, ErrPerm
	}
	return fs.dirList(ino, in)
}

// Stat describes a path.
func (fs *FS) Stat(path string, cred Cred) (Stat, error) {
	var node inode
	in := &node
	ino, err := fs.resolve(path, cred, in)
	if err != nil {
		return Stat{}, err
	}
	return Stat{
		Ino:     ino,
		Mode:    in.mode,
		UID:     in.uid,
		GID:     in.gid,
		Size:    in.size,
		Links:   in.links,
		Extents: in.usesExtents(),
	}, nil
}

// Chmod changes permission bits (owner or root only).
func (fs *FS) Chmod(path string, cred Cred, mode uint16) error {
	var node inode
	in := &node
	ino, err := fs.resolve(path, cred, in)
	if err != nil {
		return err
	}
	if cred.UID != 0 && cred.UID != in.uid {
		return ErrPerm
	}
	in.mode = in.mode&^(ModePerm|ModeSetUID) | (mode & (ModePerm | ModeSetUID))
	return fs.writeInode(ino, in)
}

// Chown changes ownership (root only).
func (fs *FS) Chown(path string, cred Cred, uid, gid uint16) error {
	var node inode
	in := &node
	ino, err := fs.resolve(path, cred, in)
	if err != nil {
		return err
	}
	if cred.UID != 0 {
		return ErrPerm
	}
	in.uid, in.gid = uid, gid
	return fs.writeInode(ino, in)
}

// File is an open file handle. Offsets are explicit (pread/pwrite style).
type File struct {
	fs       *FS
	ino      uint32
	cred     Cred
	writable bool
}

// ReadAt reads len(p) bytes at offset off, zero-filling holes. Reads past
// the end are truncated; n reports the bytes read.
func (f *File) ReadAt(p []byte, off uint64) (int, error) {
	var in inode
	if err := f.fs.readInode(f.ino, &in); err != nil {
		return 0, err
	}
	f.fs.curIno = f.ino
	if off >= in.size {
		return 0, nil
	}
	if off+uint64(len(p)) > in.size {
		p = p[:in.size-off]
	}
	n := 0
	buf := f.fs.ioBuf
	for n < len(p) {
		fileBlk := (off + uint64(n)) / BlockSize
		blkOff := int((off + uint64(n)) % BlockSize)
		if err := f.fs.readFileBlock(&in, fileBlk, buf); err != nil {
			return n, err
		}
		n += copy(p[n:], buf[blkOff:])
	}
	return n, nil
}

// WriteAt writes p at offset off, allocating blocks (and leaving holes
// before off untouched). The file grows as needed.
func (f *File) WriteAt(p []byte, off uint64) (int, error) {
	if !f.writable {
		return 0, ErrPerm
	}
	var in inode
	if err := f.fs.readInode(f.ino, &in); err != nil {
		return 0, err
	}
	f.fs.curIno = f.ino
	n := 0
	buf := f.fs.ioBuf
	for n < len(p) {
		fileBlk := (off + uint64(n)) / BlockSize
		blkOff := int((off + uint64(n)) % BlockSize)
		chunk := BlockSize - blkOff
		if chunk > len(p)-n {
			chunk = len(p) - n
		}
		if blkOff != 0 || chunk != BlockSize {
			// Read-modify-write for partial blocks.
			if err := f.fs.readFileBlock(&in, fileBlk, buf); err != nil {
				return n, err
			}
		}
		copy(buf[blkOff:], p[n:n+chunk])
		if err := f.fs.writeFileBlock(&in, fileBlk, buf); err != nil {
			return n, err
		}
		n += chunk
	}
	if end := off + uint64(len(p)); end > in.size {
		in.size = end
	}
	if err := f.fs.writeInode(f.ino, &in); err != nil {
		return n, err
	}
	return n, nil
}

// MapBlock reports the physical block currently backing fileBlk (0 for a
// hole) — the FIEMAP-style query the attacker runs on its own files.
func (f *File) MapBlock(fileBlk uint64) (uint32, error) {
	var in inode
	if err := f.fs.readInode(f.ino, &in); err != nil {
		return 0, err
	}
	f.fs.curIno = f.ino
	return f.fs.bmap(&in, fileBlk, false)
}

// SingleIndirectBlock returns the physical block holding the file's
// single-indirect pointer array, or 0 if absent. Only meaningful for
// indirect-addressed files; the exploit uses it to locate the LBA whose
// translation it wants redirected.
func (f *File) SingleIndirectBlock() (uint32, error) {
	var in inode
	if err := f.fs.readInode(f.ino, &in); err != nil {
		return 0, err
	}
	if in.usesExtents() {
		return 0, fmt.Errorf("ext4: file uses extents")
	}
	return in.iblock[idxSingle], nil
}
