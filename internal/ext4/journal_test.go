package ext4

import (
	"bytes"
	"errors"
	"testing"
)

// journalVolume builds a fresh journaled, checksummed volume for tests.
func journalVolume(t *testing.T, blocks uint64) (*MemDevice, *JournalDevice, *FS) {
	t.Helper()
	under := NewMemDevice(blocks)
	jd, err := WrapJournal(under, 0)
	if err != nil {
		t.Fatalf("WrapJournal: %v", err)
	}
	if err := Mkfs(jd, MkfsOptions{MetaChecksum: true}); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	if err := jd.Commit(); err != nil {
		t.Fatalf("Commit after mkfs: %v", err)
	}
	fs, err := Mount(jd)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return under, jd, fs
}

func TestJournalCommitDurable(t *testing.T) {
	under, jd, fs := journalVolume(t, 512)
	f, err := fs.Create("/a", Root, CreateOptions{Mode: 0o644})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 2*BlockSize)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := jd.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// Reopen the raw device: the committed state must be home.
	jd2, err := WrapJournal(under, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	fs2, err := Mount(jd2)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	f2, err := fs2.Open("/a", Root, false)
	if err != nil {
		t.Fatalf("Open after remount: %v", err)
	}
	got := make([]byte, len(payload))
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch after remount")
	}
	rep, err := fs2.Fsck()
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("fsck problems: %v", rep.Problems)
	}
}

func TestJournalUncommittedLostAtomically(t *testing.T) {
	under, jd, fs := journalVolume(t, 512)
	if _, err := fs.Create("/keep", Root, CreateOptions{Mode: 0o644}); err != nil {
		t.Fatalf("Create keep: %v", err)
	}
	if err := jd.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// A second file is created but never committed.
	if _, err := fs.Create("/lost", Root, CreateOptions{Mode: 0o644}); err != nil {
		t.Fatalf("Create lost: %v", err)
	}

	jd2, err := WrapJournal(under, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	fs2, err := Mount(jd2)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if _, err := fs2.Stat("/keep", Root); err != nil {
		t.Fatalf("committed file lost: %v", err)
	}
	if _, err := fs2.Stat("/lost", Root); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted file visible after crash: err=%v", err)
	}
	rep, err := fs2.Fsck()
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("fsck problems after losing uncommitted txn: %v", rep.Problems)
	}
}

func TestJournalCrashMidCommitReplays(t *testing.T) {
	// Crash at every possible journal offset of one committed
	// transaction; each crash must yield either the old or the new
	// state, never a torn one.
	for crashAt := 0; crashAt < 24; crashAt++ {
		under, jd, fs := journalVolume(t, 512)
		f, err := fs.Create("/x", Root, CreateOptions{Mode: 0o600})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{0x5A}, BlockSize), 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		jd.CrashAfter(crashAt)
		_ = jd.Commit() // may silently lose writes past the crash point

		jd2, err := WrapJournal(under, 0)
		if err != nil {
			t.Fatalf("crashAt=%d reopen: %v", crashAt, err)
		}
		fs2, err := Mount(jd2)
		if err != nil {
			t.Fatalf("crashAt=%d remount: %v", crashAt, err)
		}
		rep, err := fs2.Fsck()
		if err != nil {
			t.Fatalf("crashAt=%d Fsck: %v", crashAt, err)
		}
		if len(rep.Problems) != 0 {
			t.Fatalf("crashAt=%d fsck problems: %v", crashAt, rep.Problems)
		}
		// If the file is visible, its content must be complete.
		if st, err := fs2.Stat("/x", Root); err == nil {
			if st.Size != BlockSize {
				t.Fatalf("crashAt=%d torn file: size %d", crashAt, st.Size)
			}
			f2, err := fs2.Open("/x", Root, false)
			if err != nil {
				t.Fatalf("crashAt=%d Open: %v", crashAt, err)
			}
			buf := make([]byte, BlockSize)
			if _, err := f2.ReadAt(buf, 0); err != nil {
				t.Fatalf("crashAt=%d ReadAt: %v", crashAt, err)
			}
			for _, b := range buf {
				if b != 0x5A {
					t.Fatalf("crashAt=%d torn content", crashAt)
				}
			}
		} else if !errors.Is(err, ErrNotFound) {
			t.Fatalf("crashAt=%d Stat: %v", crashAt, err)
		}
	}
}

func TestInodeChecksumDetectsCorruption(t *testing.T) {
	dev := NewMemDevice(256)
	if err := Mkfs(dev, MkfsOptions{MetaChecksum: true}); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	fs, err := Mount(dev)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if !fs.MetaChecksums() {
		t.Fatal("MetaChecksums not persisted")
	}
	f, err := fs.Create("/s", Root, CreateOptions{Mode: 0o600})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Flip one bit inside the file's inode record, bypassing writeInode.
	start, _ := fs.InodeTableRange()
	buf := make([]byte, BlockSize)
	blk := start + uint64(f.ino)*InodeSize/BlockSize
	off := uint64(f.ino) * InodeSize % BlockSize
	if err := dev.ReadBlock(blk, buf); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	buf[off+8] ^= 0x01 // size field
	if err := dev.WriteBlock(blk, buf); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	if _, err := fs.Stat("/s", Root); !errors.Is(err, ErrInodeChecksum) {
		t.Fatalf("corrupt inode not detected: err=%v", err)
	}
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if len(rep.Problems) == 0 {
		t.Fatal("fsck missed the corrupt inode")
	}
}

func TestInodeChecksumOffByDefault(t *testing.T) {
	dev := NewMemDevice(256)
	if err := Mkfs(dev, MkfsOptions{}); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	fs, err := Mount(dev)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	if fs.MetaChecksums() {
		t.Fatal("MetaChecksums on without opt-in")
	}
	f, err := fs.Create("/s", Root, CreateOptions{Mode: 0o600})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	start, _ := fs.InodeTableRange()
	buf := make([]byte, BlockSize)
	blk := start + uint64(f.ino)*InodeSize/BlockSize
	off := uint64(f.ino) * InodeSize % BlockSize
	if err := dev.ReadBlock(blk, buf); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	buf[off+8] ^= 0x01
	if err := dev.WriteBlock(blk, buf); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	// Without checksums the corruption is silently honoured.
	if _, err := fs.Stat("/s", Root); err != nil {
		t.Fatalf("unchecksummed volume rejected read: %v", err)
	}
}
