package ext4

// Link creates a hard link newPath referring to oldPath's inode. Both
// the containing directory of newPath (write+execute) and traversal
// permissions apply. Directories cannot be hard-linked.
func (fs *FS) Link(oldPath, newPath string, cred Cred) error {
	var node, dir inode
	in, dirIn := &node, &dir
	ino, err := fs.resolve(oldPath, cred, in)
	if err != nil {
		return err
	}
	if in.isDir() {
		return ErrIsDir
	}
	dirIno, name, err := fs.resolveParent(newPath, cred, dirIn)
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
	if err := fs.dirAdd(dirIno, dirIn, name, ino, ftypeFile); err != nil {
		return err
	}
	in.links++
	return fs.writeInode(ino, in)
}

// Rename moves oldPath to newPath (within the volume). It follows POSIX
// semantics for the common cases: the destination may exist and be
// replaced if it is a file; directories may be renamed when the
// destination does not exist.
func (fs *FS) Rename(oldPath, newPath string, cred Cred) error {
	// The two parents are separate locals: both are live at once.
	var oldDir, newDir inode
	oldDirIn, newDirIn := &oldDir, &newDir
	oldDirIno, oldName, err := fs.resolveParent(oldPath, cred, oldDirIn)
	if err != nil {
		return err
	}
	if !oldDirIn.access(cred, permWrite|permExec) {
		return ErrPerm
	}
	ino, err := fs.dirLookup(oldDirIno, oldDirIn, oldName)
	if err != nil {
		return err
	}
	var in inode
	if err := fs.readInode(ino, &in); err != nil {
		return err
	}

	newDirIno, newName, err := fs.resolveParent(newPath, cred, newDirIn)
	if err != nil {
		return err
	}
	if !newDirIn.access(cred, permWrite|permExec) {
		return ErrPerm
	}
	// Same-directory rename must operate on one consistent view.
	if newDirIno == oldDirIno {
		newDirIn = oldDirIn
	}

	// Handle an existing destination.
	if destIno, err := fs.dirLookup(newDirIno, newDirIn, newName); err == nil {
		var destIn inode
		if err := fs.readInode(destIno, &destIn); err != nil {
			return err
		}
		if destIn.isDir() {
			return ErrExists
		}
		if in.isDir() {
			return ErrNotDir
		}
		if err := fs.Unlink(newPath, cred); err != nil {
			return err
		}
		// Directory blocks may have shifted; reload views.
		if err := fs.readInode(newDirIno, newDirIn); err != nil {
			return err
		}
		if newDirIno == oldDirIno {
			oldDirIn = newDirIn
		}
	} else if err != ErrNotFound {
		return err
	}

	ftype := byte(ftypeFile)
	if in.isDir() {
		ftype = ftypeDir
	}
	if err := fs.dirAdd(newDirIno, newDirIn, newName, ino, ftype); err != nil {
		return err
	}
	if newDirIno == oldDirIno {
		oldDirIn = newDirIn
	}
	if err := fs.dirRemove(oldDirIno, oldDirIn, oldName); err != nil {
		return err
	}
	if in.isDir() && oldDirIno != newDirIno {
		// ".." now points at the new parent; fix link counts and the
		// entry itself.
		fs.curIno = ino
		if err := fs.dirRemove(ino, &in, ".."); err != nil {
			return err
		}
		if err := fs.dirAdd(ino, &in, "..", newDirIno, ftypeDir); err != nil {
			return err
		}
		oldDirIn.links--
		if err := fs.writeInode(oldDirIno, oldDirIn); err != nil {
			return err
		}
		newDirIn.links++
		if err := fs.writeInode(newDirIno, newDirIn); err != nil {
			return err
		}
	}
	return nil
}
