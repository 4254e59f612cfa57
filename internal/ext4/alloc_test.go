package ext4

import (
	"bytes"
	"fmt"
	"testing"
)

// allocFiles is how many indirect-addressed files share the pinned
// directory: the §4.2 spray's shape, where every lookup scans a large
// directory linearly.
const allocFiles = 1024

// probeOff is file block 12, the first block reached through the
// single-indirect chain (where the attack's spray files keep their data).
const probeOff = NDirect * BlockSize

// allocVolume builds a 16384-block in-memory volume with allocFiles
// indirect-addressed files in /d, each holding one block at probeOff.
func allocVolume(t *testing.T) (*FS, []string) {
	t.Helper()
	fs := newFS(t, 16384, MkfsOptions{})
	if err := fs.Mkdir("/d", Root, 0o755); err != nil {
		t.Fatal(err)
	}
	names := make([]string, allocFiles)
	blk := make([]byte, BlockSize)
	for i := range names {
		names[i] = fmt.Sprintf("/d/f%05d", i)
		f, err := fs.Create(names[i], Root, CreateOptions{UseIndirect: true, Mode: 0o644})
		if err != nil {
			t.Fatal(err)
		}
		blk[0] = byte(i)
		if _, err := f.WriteAt(blk, probeOff); err != nil {
			t.Fatal(err)
		}
	}
	return fs, names
}

// TestSteadyStateOpsAllocs pins the ext4 half of the zero-allocation
// contract: once a volume is warm, lookups, unlinks, reads and writes on
// indirect-addressed files allocate nothing, and a create allocates only
// the *File it returns. The §4.2 attack runs these operations hundreds of
// thousands of times per campaign.
func TestSteadyStateOpsAllocs(t *testing.T) {
	fs, names := allocVolume(t)
	last := names[len(names)-1]
	f, err := fs.Open(last, Root, true)
	if err != nil {
		t.Fatal(err)
	}
	blk := make([]byte, BlockSize)

	cases := []struct {
		name string
		max  float64
		op   func() error
	}{
		// The last entry: the lookup visits every entry of the directory.
		{"Stat", 0, func() error {
			_, err := fs.Stat(last, Root)
			return err
		}},
		{"ReadAt", 0, func() error {
			_, err := f.ReadAt(blk, probeOff)
			return err
		}},
		{"WriteAt", 0, func() error {
			_, err := f.WriteAt(blk, probeOff)
			return err
		}},
		{"Create+Unlink", 1, func() error {
			if _, err := fs.Create("/d/new", Root, CreateOptions{UseIndirect: true}); err != nil {
				return err
			}
			return fs.Unlink("/d/new", Root)
		}},
	}
	for _, tc := range cases {
		var opErr error
		avg := testing.AllocsPerRun(100, func() {
			if err := tc.op(); err != nil {
				opErr = err
			}
		})
		if opErr != nil {
			t.Fatalf("%s: %v", tc.name, opErr)
		}
		if avg > tc.max {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", tc.name, avg, tc.max)
		}
	}

	// Unlink each file in turn, freeing its single-indirect tree; the
	// measured runs (and AllocsPerRun's warm-up call) take the first 101.
	next := 0
	var opErr error
	avg := testing.AllocsPerRun(100, func() {
		if err := fs.Unlink(names[next], Root); err != nil {
			opErr = err
		}
		next++
	})
	if opErr != nil {
		t.Fatalf("Unlink: %v", opErr)
	}
	if avg != 0 {
		t.Errorf("Unlink: %.1f allocs/op, want 0", avg)
	}
}

// TestScratchBlocksDoNotAlias drives every scratch block while another is
// held: a directory grown past its 12 direct blocks (so dirAdd's and
// dirRemove's callbacks write back through walkIndirect while dirScan
// holds its block), a file addressed through a double-indirect block (so
// freeIndirectTree recurses with its caller's pointer array still live),
// and a full teardown that must return every data block.
func TestScratchBlocksDoNotAlias(t *testing.T) {
	const entries = 2500
	fs := newFS(t, 4096, MkfsOptions{InodeCount: 4096})
	startFree, err := fs.FreeDataBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/big", Root, 0o755); err != nil {
		t.Fatal(err)
	}
	inos := make(map[string]uint32, entries)
	create := func(name string) {
		t.Helper()
		f, err := fs.Create(name, Root, CreateOptions{UseIndirect: true, Mode: 0o644})
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		inos[name] = f.ino
	}
	names := make([]string, entries)
	for i := range names {
		names[i] = fmt.Sprintf("/big/n-%010d", i) // 12-character entry name
		create(names[i])
	}
	st, err := fs.Stat("/big", Root)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size <= NDirect*BlockSize {
		t.Fatalf("directory is %d bytes: never reached its single-indirect block", st.Size)
	}
	for i := 0; i < entries; i += 3 {
		if err := fs.Unlink(names[i], Root); err != nil {
			t.Fatalf("unlink %s: %v", names[i], err)
		}
		delete(inos, names[i])
	}
	for i := 0; i < entries; i += 6 {
		create(names[i])
	}

	// Two blocks under the double-indirect block, each behind its own
	// single-indirect block.
	f, err := fs.Create("/deep", Root, CreateOptions{UseIndirect: true, Mode: 0o644})
	if err != nil {
		t.Fatal(err)
	}
	deep := []uint64{NDirect + ptrsPerBlock, NDirect + 2*ptrsPerBlock}
	for i, fileBlk := range deep {
		blk := bytes.Repeat([]byte{byte(0xA0 + i)}, BlockSize)
		if _, err := f.WriteAt(blk, fileBlk*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	for i, fileBlk := range deep {
		got := make([]byte, BlockSize)
		if _, err := f.ReadAt(got, fileBlk*BlockSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(0xA0 + i)}, BlockSize)) {
			t.Fatalf("file block %d did not read back what was written", fileBlk)
		}
	}

	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("fsck: %v", rep.Problems)
	}
	for name, ino := range inos {
		st, err := fs.Stat(name, Root)
		if err != nil {
			t.Fatalf("stat %s: %v", name, err)
		}
		if st.Ino != ino {
			t.Fatalf("%s resolves to inode %d, created as %d", name, st.Ino, ino)
		}
	}

	for name := range inos {
		if err := fs.Unlink(name, Root); err != nil {
			t.Fatalf("unlink %s: %v", name, err)
		}
	}
	if err := fs.Unlink("/deep", Root); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/big", Root); err != nil {
		t.Fatal(err)
	}
	free, err := fs.FreeDataBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if free != startFree {
		t.Fatalf("%d free data blocks after teardown, %d at the start", free, startFree)
	}
}
