package ext4

import (
	"bytes"
	"testing"
	"testing/quick"
)

func newFS(t *testing.T, blocks uint64, opts MkfsOptions) *FS {
	t.Helper()
	dev := NewMemDevice(blocks)
	if err := Mkfs(dev, opts); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestMkfsMountRoundTrip(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	st, err := fs.Stat("/", Root)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ino != RootIno || st.Mode&ModeDir == 0 {
		t.Fatalf("root stat = %+v", st)
	}
	if _, err := Mount(NewMemDevice(64)); err != ErrNotFormatted {
		t.Fatalf("mount of blank device: %v, want ErrNotFormatted", err)
	}
}

func TestCreateWriteRead(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	f, err := fs.Create("/hello.txt", Root, CreateOptions{Mode: 0o644})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello, rowhammer")
	if _, err := f.WriteAt(msg, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	f2, err := fs.Open("/hello.txt", Root, false)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f2.ReadAt(got, 0); err != nil || n != len(msg) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
}

func TestLargeFileMultiBlock(t *testing.T) {
	fs := newFS(t, 4096, MkfsOptions{})
	f, err := fs.Create("/big", Root, CreateOptions{Mode: 0o644})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 40*BlockSize+123)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(data) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-block data mismatch")
	}
	if st, _ := fs.Stat("/big", Root); st.Size != uint64(len(data)) {
		t.Fatalf("size = %d, want %d", st.Size, len(data))
	}
}

func TestUnalignedReadsWrites(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	f, _ := fs.Create("/u", Root, CreateOptions{Mode: 0o644})
	if _, err := f.WriteAt([]byte("abcdef"), 4090); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if _, err := f.ReadAt(got, 4090); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcdef" {
		t.Fatalf("cross-block read %q", got)
	}
	// Overwrite the middle.
	if _, err := f.WriteAt([]byte("XY"), 4092); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(got, 4090); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abXYef" {
		t.Fatalf("partial overwrite read %q", got)
	}
}

func TestHolesReadZero(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	f, _ := fs.Create("/sparse", Root, CreateOptions{Mode: 0o644, UseIndirect: true})
	// Write only block 12 (first indirect block) leaving 0..11 as holes —
	// exactly the spray-file shape from §4.2.
	payload := bytes.Repeat([]byte{0xAB}, BlockSize)
	if _, err := f.WriteAt(payload, 12*BlockSize); err != nil {
		t.Fatal(err)
	}
	for blk := uint64(0); blk < 12; blk++ {
		phys, err := f.MapBlock(blk)
		if err != nil {
			t.Fatal(err)
		}
		if phys != 0 {
			t.Fatalf("hole block %d has physical block %d", blk, phys)
		}
	}
	got := make([]byte, 16)
	if _, err := f.ReadAt(got, 5*BlockSize); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("hole read non-zero")
		}
	}
	ind, err := f.SingleIndirectBlock()
	if err != nil {
		t.Fatal(err)
	}
	if ind == 0 {
		t.Fatal("no single indirect block allocated")
	}
	if phys, _ := f.MapBlock(12); phys == 0 {
		t.Fatal("block 12 not mapped")
	}
}

func TestIndirectDoubleAndTriple(t *testing.T) {
	// Touch one block in the double- and triple-indirect ranges of a
	// sparse file; on-disk pointer chains must resolve both ways.
	fs := newFS(t, 4096, MkfsOptions{})
	f, _ := fs.Create("/deep", Root, CreateOptions{Mode: 0o644, UseIndirect: true})
	p1 := uint64(ptrsPerBlock)
	doubleBlk := uint64(NDirect) + p1 + 5
	tripleBlk := uint64(NDirect) + p1 + p1*p1 + 77
	for i, blk := range []uint64{doubleBlk, tripleBlk} {
		want := bytes.Repeat([]byte{byte(0xC0 + i)}, BlockSize)
		if _, err := f.WriteAt(want, blk*BlockSize); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, BlockSize)
		if _, err := f.ReadAt(got, blk*BlockSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("deep indirect block %d mismatch", blk)
		}
	}
}

func TestExtentFilesGrowAcrossLeafSpill(t *testing.T) {
	fs := newFS(t, 8192, MkfsOptions{})
	f, _ := fs.Create("/ext", Root, CreateOptions{Mode: 0o644})
	// Force many discontiguous extents by writing every other block.
	blocks := inodeMaxExtents*3 + 2
	for i := 0; i < blocks; i++ {
		data := bytes.Repeat([]byte{byte(i)}, BlockSize)
		if _, err := f.WriteAt(data, uint64(i*2)*BlockSize); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < blocks; i++ {
		got := make([]byte, BlockSize)
		if _, err := f.ReadAt(got, uint64(i*2)*BlockSize); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("block %d = %#x, want %#x", i, got[0], byte(i))
		}
	}
	st, _ := fs.Stat("/ext", Root)
	if !st.Extents {
		t.Fatal("file not marked as extent-addressed")
	}
}

func TestSequentialWritesMergeExtents(t *testing.T) {
	fs := newFS(t, 2048, MkfsOptions{})
	f, _ := fs.Create("/seq", Root, CreateOptions{Mode: 0o644})
	data := make([]byte, 32*BlockSize)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	var in inode
	if err := fs.readInode(f.ino, &in); err != nil {
		t.Fatal(err)
	}
	entries, depth, err := rootHeader(&in)
	if err != nil {
		t.Fatal(err)
	}
	if depth != 0 || entries > 2 {
		t.Fatalf("sequential 32-block write produced %d extents (depth %d), want merged", entries, depth)
	}
}

func TestExtentChecksumDetectsCorruption(t *testing.T) {
	fs := newFS(t, 8192, MkfsOptions{})
	f, _ := fs.Create("/chk", Root, CreateOptions{Mode: 0o644})
	// Spill to leaf blocks.
	for i := 0; i < inodeMaxExtents*2; i++ {
		if _, err := f.WriteAt([]byte{1}, uint64(i*2)*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	var in inode
	if err := fs.readInode(f.ino, &in); err != nil {
		t.Fatal(err)
	}
	_, depth, err := rootHeader(&in)
	if err != nil {
		t.Fatal(err)
	}
	if depth != 1 {
		t.Fatalf("depth = %d, want 1 (leaf spill)", depth)
	}
	leaf := uint64(in.iblock[2])
	// Corrupt the leaf behind the filesystem's back (what a redirected
	// LBA would do).
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(leaf, buf); err != nil {
		t.Fatal(err)
	}
	buf[20] ^= 0xFF
	if err := fs.dev.WriteBlock(leaf, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	if _, err := f.ReadAt(got, 0); err != ErrChecksum {
		t.Fatalf("corrupted extent leaf read error = %v, want ErrChecksum", err)
	}
}

func TestIndirectBlockHasNoIntegrityCheck(t *testing.T) {
	// The asymmetry the exploit rests on: corrupt an indirect block and
	// the filesystem happily follows the new pointers.
	fs := newFS(t, 2048, MkfsOptions{})
	// A "victim" block with known content.
	secret, _ := fs.Create("/secret", Root, CreateOptions{Mode: 0o600})
	secretData := bytes.Repeat([]byte{0x5E}, BlockSize)
	if _, err := secret.WriteAt(secretData, 0); err != nil {
		t.Fatal(err)
	}
	secretPhys, err := secret.MapBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	// Attacker file with an indirect block.
	f, _ := fs.Create("/attacker", Root, CreateOptions{Mode: 0o644, UseIndirect: true})
	if _, err := f.WriteAt(make([]byte, BlockSize), 12*BlockSize); err != nil {
		t.Fatal(err)
	}
	ind, err := f.SingleIndirectBlock()
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the indirect block to point at the secret.
	buf := make([]byte, BlockSize)
	if err := fs.dev.ReadBlock(uint64(ind), buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = byte(secretPhys)
	buf[1] = byte(secretPhys >> 8)
	buf[2] = byte(secretPhys >> 16)
	buf[3] = byte(secretPhys >> 24)
	if err := fs.dev.WriteBlock(uint64(ind), buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, BlockSize)
	if _, err := f.ReadAt(got, 12*BlockSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secretData) {
		t.Fatal("indirect redirection did not leak the secret block")
	}
}

func TestForbidIndirectMitigation(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{ForbidIndirect: true})
	if !fs.ForbidsIndirect() {
		t.Fatal("mitigation flag not persisted")
	}
	if _, err := fs.Create("/x", Root, CreateOptions{UseIndirect: true}); err != ErrIndirectOff {
		t.Fatalf("indirect create under mitigation: %v, want ErrIndirectOff", err)
	}
	if _, err := fs.Create("/y", Root, CreateOptions{}); err != nil {
		t.Fatalf("extent create under mitigation: %v", err)
	}
}

func TestPermissions(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	alice := Cred{UID: 1000, GID: 1000}
	mallory := Cred{UID: 2000, GID: 2000}
	f, err := fs.Create("/private", Root, CreateOptions{Mode: 0o600})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("root secret"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/private", mallory, false); err != ErrPerm {
		t.Fatalf("unprivileged open of 0600 root file: %v, want ErrPerm", err)
	}
	if _, err := fs.Open("/private", Root, true); err != nil {
		t.Fatalf("root open: %v", err)
	}
	// Owner semantics.
	if err := fs.Chown("/private", Root, alice.UID, alice.GID); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/private", alice, true); err != nil {
		t.Fatalf("owner open after chown: %v", err)
	}
	if err := fs.Chown("/private", alice, mallory.UID, 0); err != ErrPerm {
		t.Fatal("non-root chown accepted")
	}
	if err := fs.Chmod("/private", mallory, 0o777); err != ErrPerm {
		t.Fatal("non-owner chmod accepted")
	}
	if err := fs.Chmod("/private", alice, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/private", mallory, false); err != nil {
		t.Fatalf("world-readable open: %v", err)
	}
	if _, err := fs.Open("/private", mallory, true); err != ErrPerm {
		t.Fatal("write open without w bit accepted")
	}
}

func TestSetuidBitPreserved(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	if _, err := fs.Create("/sudo", Root, CreateOptions{Mode: 0o755 | ModeSetUID}); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stat("/sudo", Cred{UID: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode&ModeSetUID == 0 {
		t.Fatal("setuid bit lost")
	}
}

func TestDirectoriesAndNesting(t *testing.T) {
	fs := newFS(t, 2048, MkfsOptions{})
	if err := fs.Mkdir("/home", Root, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/home/alice", Root, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/home/alice/todo", Root, CreateOptions{Mode: 0o644}); err != nil {
		t.Fatal(err)
	}
	ents, err := fs.ReadDir("/home/alice", Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "todo" || ents[0].IsDir {
		t.Fatalf("ReadDir = %+v", ents)
	}
	if err := fs.Mkdir("/home", Root, 0o755); err != ErrExists {
		t.Fatal("duplicate mkdir accepted")
	}
	if _, err := fs.Open("/home/alice", Root, false); err != ErrIsDir {
		t.Fatal("Open of directory accepted")
	}
	if _, err := fs.Stat("/home/bob", Root); err != ErrNotFound {
		t.Fatalf("missing path stat: %v", err)
	}
}

func TestManyFilesInDirectory(t *testing.T) {
	fs := newFS(t, 8192, MkfsOptions{InodeCount: 2048})
	names := make(map[string]bool)
	for i := 0; i < 300; i++ {
		name := "/f" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i/260))
		if names[name] {
			continue
		}
		names[name] = true
		if _, err := fs.Create(name, Root, CreateOptions{Mode: 0o644}); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	ents, err := fs.ReadDir("/", Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(names) {
		t.Fatalf("ReadDir returned %d entries, want %d", len(ents), len(names))
	}
}

func TestUnlinkFreesSpace(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	before, err := fs.FreeDataBlocks()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("/tmp1", Root, CreateOptions{Mode: 0o644})
	if _, err := f.WriteAt(make([]byte, 20*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	mid, _ := fs.FreeDataBlocks()
	if mid >= before {
		t.Fatal("write did not consume blocks")
	}
	if err := fs.Unlink("/tmp1", Root); err != nil {
		t.Fatal(err)
	}
	after, _ := fs.FreeDataBlocks()
	if after != before {
		t.Fatalf("unlink leaked blocks: before=%d after=%d", before, after)
	}
	if _, err := fs.Open("/tmp1", Root, false); err != ErrNotFound {
		t.Fatal("unlinked file still opens")
	}
}

func TestUnlinkIndirectFreesSpace(t *testing.T) {
	fs := newFS(t, 2048, MkfsOptions{})
	before, _ := fs.FreeDataBlocks()
	f, _ := fs.Create("/spray", Root, CreateOptions{Mode: 0o644, UseIndirect: true})
	if _, err := f.WriteAt(make([]byte, BlockSize), 12*BlockSize); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/spray", Root); err != nil {
		t.Fatal(err)
	}
	after, _ := fs.FreeDataBlocks()
	if after != before {
		t.Fatalf("indirect unlink leaked: before=%d after=%d", before, after)
	}
}

func TestRmdir(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	if err := fs.Mkdir("/d", Root, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/d/f", Root, CreateOptions{Mode: 0o644}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/d", Root); err != ErrNotEmpty {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := fs.Unlink("/d/f", Root); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/d", Root); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/d", Root); err != ErrNotFound {
		t.Fatal("removed dir still stats")
	}
}

func TestFsckCleanVolume(t *testing.T) {
	fs := newFS(t, 2048, MkfsOptions{})
	fs.Mkdir("/a", Root, 0o755)
	f, _ := fs.Create("/a/x", Root, CreateOptions{Mode: 0o644})
	f.WriteAt(make([]byte, 10*BlockSize), 0)
	g, _ := fs.Create("/a/y", Root, CreateOptions{Mode: 0o644, UseIndirect: true})
	g.WriteAt(make([]byte, BlockSize), 12*BlockSize)
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("clean volume reported problems: %v", rep.Problems)
	}
	if rep.FilesSeen != 2 || rep.DirsSeen != 2 {
		t.Fatalf("fsck counts: %+v", rep)
	}
}

func TestFsckDetectsCorruptIndirect(t *testing.T) {
	fs := newFS(t, 2048, MkfsOptions{})
	f, _ := fs.Create("/x", Root, CreateOptions{Mode: 0o644, UseIndirect: true})
	f.WriteAt(make([]byte, BlockSize), 12*BlockSize)
	ind, _ := f.SingleIndirectBlock()
	buf := make([]byte, BlockSize)
	fs.dev.ReadBlock(uint64(ind), buf)
	buf[3] = 0x7F // out-of-range pointer
	fs.dev.WriteBlock(uint64(ind), buf)
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) == 0 {
		t.Fatal("fsck missed an out-of-range pointer")
	}
}

func TestPathValidation(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	if _, err := fs.Create("relative", Root, CreateOptions{}); err == nil {
		t.Fatal("relative path accepted")
	}
	longName := "/" + string(bytes.Repeat([]byte{'a'}, 100))
	if _, err := fs.Create(longName, Root, CreateOptions{}); err == nil {
		t.Fatal("over-long name accepted")
	}
	if err := fs.Unlink("/", Root); err == nil {
		t.Fatal("unlink of / accepted")
	}
}

func TestWriteRequiresHandlePermission(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{})
	f, _ := fs.Create("/w", Root, CreateOptions{Mode: 0o644})
	f.WriteAt([]byte("x"), 0)
	ro, err := fs.Open("/w", Root, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.WriteAt([]byte("y"), 0); err != ErrPerm {
		t.Fatal("read-only handle wrote")
	}
}

func TestQuickRandomWriteReadBack(t *testing.T) {
	fs := newFS(t, 4096, MkfsOptions{})
	f, err := fs.Create("/q", Root, CreateOptions{Mode: 0o644})
	if err != nil {
		t.Fatal(err)
	}
	shadow := make(map[uint64]byte)
	prop := func(offRaw uint32, val byte) bool {
		off := uint64(offRaw) % (64 * BlockSize)
		if _, err := f.WriteAt([]byte{val}, off); err != nil {
			return false
		}
		shadow[off] = val
		// Verify a handful of previously written offsets.
		checked := 0
		for o, v := range shadow {
			got := make([]byte, 1)
			if _, err := f.ReadAt(got, o); err != nil || got[0] != v {
				return false
			}
			checked++
			if checked > 4 {
				break
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfSpace(t *testing.T) {
	fs := newFS(t, 64, MkfsOptions{}) // tiny volume
	f, err := fs.Create("/fill", Root, CreateOptions{Mode: 0o644})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := f.WriteAt(make([]byte, 200*BlockSize), 0)
	if werr == nil {
		t.Fatal("oversized write on tiny volume succeeded")
	}
}

func TestOutOfInodes(t *testing.T) {
	fs := newFS(t, 1024, MkfsOptions{InodeCount: 16})
	var err error
	for i := 0; i < 20 && err == nil; i++ {
		_, err = fs.Create("/i"+string(rune('a'+i)), Root, CreateOptions{Mode: 0o644})
	}
	if err != ErrNoInodes {
		t.Fatalf("exhaustion error = %v, want ErrNoInodes", err)
	}
}

func BenchmarkCreateWriteUnlink(b *testing.B) {
	dev := NewMemDevice(8192)
	if err := Mkfs(dev, MkfsOptions{InodeCount: 4096}); err != nil {
		b.Fatal(err)
	}
	fs, err := Mount(dev)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fs.Create("/bench", Root, CreateOptions{Mode: 0o644})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			b.Fatal(err)
		}
		if err := fs.Unlink("/bench", Root); err != nil {
			b.Fatal(err)
		}
	}
}
