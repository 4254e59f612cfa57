package ext4

import (
	"testing"
)

func TestHardLink(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	f, err := fs.Create("/a", Root, CreateOptions{Mode: 0o644})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("shared"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Link("/a", "/b", Root); err != nil {
		t.Fatal(err)
	}
	stA, _ := fs.Stat("/a", Root)
	stB, _ := fs.Stat("/b", Root)
	if stA.Ino != stB.Ino {
		t.Fatal("link created a different inode")
	}
	if stA.Links != 2 {
		t.Fatalf("links = %d, want 2", stA.Links)
	}
	// Writing through one name is visible through the other.
	g, err := fs.Open("/b", Root, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("SHARED"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	h, _ := fs.Open("/a", Root, false)
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "SHARED" {
		t.Fatalf("read %q through the other link", buf)
	}
	// Unlinking one name keeps the data alive.
	if err := fs.Unlink("/a", Root); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/b", Root, false); err != nil {
		t.Fatalf("surviving link unreadable: %v", err)
	}
	st, _ := fs.Stat("/b", Root)
	if st.Links != 1 {
		t.Fatalf("links after unlink = %d", st.Links)
	}
	// Unlinking the last name frees everything.
	before, _ := fs.FreeDataBlocks()
	if err := fs.Unlink("/b", Root); err != nil {
		t.Fatal(err)
	}
	after, _ := fs.FreeDataBlocks()
	if after <= before {
		t.Fatal("last unlink freed no blocks")
	}
}

func TestLinkRestrictions(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	fs.Mkdir("/d", Root, 0o755)
	if err := fs.Link("/d", "/d2", Root); err != ErrIsDir {
		t.Fatalf("dir hard link: %v", err)
	}
	fs.Create("/x", Root, CreateOptions{Mode: 0o644})
	fs.Create("/y", Root, CreateOptions{Mode: 0o644})
	if err := fs.Link("/x", "/y", Root); err != ErrExists {
		t.Fatalf("link over existing: %v", err)
	}
	mallory := Cred{UID: 3000, GID: 3000}
	if err := fs.Link("/x", "/z", mallory); err != ErrPerm {
		t.Fatalf("unprivileged link into /: %v", err)
	}
}

func TestRenameFileSameDir(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	f, _ := fs.Create("/old", Root, CreateOptions{Mode: 0o644})
	f.WriteAt([]byte("payload"), 0)
	if err := fs.Rename("/old", "/new", Root); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/old", Root); err != ErrNotFound {
		t.Fatal("old name survives")
	}
	g, err := fs.Open("/new", Root, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	g.ReadAt(buf, 0)
	if string(buf) != "payload" {
		t.Fatalf("renamed content %q", buf)
	}
}

func TestRenameAcrossDirs(t *testing.T) {
	fs := newFS(t, 2048, MkfsOptions{})
	fs.Mkdir("/src", Root, 0o755)
	fs.Mkdir("/dst", Root, 0o755)
	f, _ := fs.Create("/src/f", Root, CreateOptions{Mode: 0o644})
	f.WriteAt([]byte("move me"), 0)
	if err := fs.Rename("/src/f", "/dst/g", Root); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/src/f", Root); err != ErrNotFound {
		t.Fatal("source entry survives")
	}
	st, err := fs.Stat("/dst/g", Root)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 7 {
		t.Fatalf("size %d", st.Size)
	}
}

func TestRenameReplacesFile(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	a, _ := fs.Create("/a", Root, CreateOptions{Mode: 0o644})
	a.WriteAt([]byte("AAA"), 0)
	b, _ := fs.Create("/b", Root, CreateOptions{Mode: 0o644})
	b.WriteAt([]byte("BBB"), 0)
	if err := fs.Rename("/a", "/b", Root); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open("/b", Root, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	g.ReadAt(buf, 0)
	if string(buf) != "AAA" {
		t.Fatalf("replacement content %q", buf)
	}
	rep, err := fs.Fsck()
	if err != nil || len(rep.Problems) != 0 {
		t.Fatalf("fsck after replace: %v %v", err, rep.Problems)
	}
}

func TestRenameDirectory(t *testing.T) {
	fs := newFS(t, 2048, MkfsOptions{})
	fs.Mkdir("/p1", Root, 0o755)
	fs.Mkdir("/p2", Root, 0o755)
	fs.Mkdir("/p1/sub", Root, 0o755)
	fs.Create("/p1/sub/f", Root, CreateOptions{Mode: 0o644})
	if err := fs.Rename("/p1/sub", "/p2/moved", Root); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/p2/moved/f", Root); err != nil {
		t.Fatalf("child lost after dir rename: %v", err)
	}
	// ".." must point at the new parent: removing the moved tree must
	// leave consistent link counts.
	if err := fs.Unlink("/p2/moved/f", Root); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/p2/moved", Root); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Fsck()
	if err != nil || len(rep.Problems) != 0 {
		t.Fatalf("fsck after dir rename: %v %v", err, rep.Problems)
	}
	st1, _ := fs.Stat("/p1", Root)
	st2, _ := fs.Stat("/p2", Root)
	if st1.Links != 2 || st2.Links != 2 {
		t.Fatalf("parent link counts %d/%d, want 2/2", st1.Links, st2.Links)
	}
}

func TestRenameOntoDirRejected(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	fs.Create("/f", Root, CreateOptions{Mode: 0o644})
	fs.Mkdir("/d", Root, 0o755)
	if err := fs.Rename("/f", "/d", Root); err != ErrExists {
		t.Fatalf("file onto dir: %v", err)
	}
	if err := fs.Rename("/d", "/f", Root); err != ErrNotDir {
		t.Fatalf("dir onto file: %v", err)
	}
}
