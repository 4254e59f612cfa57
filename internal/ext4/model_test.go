package ext4

import (
	"bytes"
	"fmt"
	"testing"

	"ftlhammer/internal/sim"
)

// TestModelBasedRandomOps drives a long random sequence of filesystem
// operations and cross-checks every outcome against an in-memory shadow
// model, then fscks. This is the repository's ext4 fuzz-lite.
func TestModelBasedRandomOps(t *testing.T) {
	fs := newFS(t, 8192, MkfsOptions{InodeCount: 1024})
	rng := sim.NewRNG(0xE4)

	type shadowFile struct {
		data     map[uint64]byte // sparse content
		size     uint64
		indirect bool
	}
	shadow := map[string]*shadowFile{}
	names := []string{}
	for i := 0; i < 24; i++ {
		names = append(names, fmt.Sprintf("/f%02d", i))
	}

	const ops = 3000
	for step := 0; step < ops; step++ {
		name := names[rng.Intn(len(names))]
		sf := shadow[name]
		switch op := rng.Intn(9); {
		case op < 3: // create
			indirect := rng.Bool()
			_, err := fs.Create(name, Root, CreateOptions{Mode: 0o644, UseIndirect: indirect})
			if sf != nil {
				if err != ErrExists {
					t.Fatalf("step %d: create over existing %s: %v", step, name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: create %s: %v", step, name, err)
			}
			shadow[name] = &shadowFile{data: map[uint64]byte{}, indirect: indirect}
		case op < 6: // write a small chunk at a random offset
			if sf == nil {
				continue
			}
			f, err := fs.Open(name, Root, true)
			if err != nil {
				t.Fatalf("step %d: open %s: %v", step, name, err)
			}
			off := rng.Uint64n(64 * BlockSize)
			n := int(rng.Uint64n(300)) + 1
			chunk := make([]byte, n)
			for i := range chunk {
				chunk[i] = byte(rng.Uint64())
			}
			if _, err := f.WriteAt(chunk, off); err != nil {
				t.Fatalf("step %d: write %s @%d+%d: %v", step, name, off, n, err)
			}
			for i, b := range chunk {
				sf.data[off+uint64(i)] = b
			}
			if end := off + uint64(n); end > sf.size {
				sf.size = end
			}
		case op < 8: // read back and compare a window
			if sf == nil {
				continue
			}
			f, err := fs.Open(name, Root, false)
			if err != nil {
				t.Fatalf("step %d: open %s: %v", step, name, err)
			}
			st, err := fs.Stat(name, Root)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size != sf.size {
				t.Fatalf("step %d: %s size %d, want %d", step, name, st.Size, sf.size)
			}
			if sf.size == 0 {
				continue
			}
			off := rng.Uint64n(sf.size)
			n := int(rng.Uint64n(256)) + 1
			buf := make([]byte, n)
			read, err := f.ReadAt(buf, off)
			if err != nil {
				t.Fatalf("step %d: read %s: %v", step, name, err)
			}
			for i := 0; i < read; i++ {
				want := sf.data[off+uint64(i)] // zero for holes
				if buf[i] != want {
					t.Fatalf("step %d: %s[%d] = %#x, want %#x", step, name, off+uint64(i), buf[i], want)
				}
			}
		default: // unlink
			err := fs.Unlink(name, Root)
			if sf == nil {
				if err != ErrNotFound {
					t.Fatalf("step %d: unlink missing %s: %v", step, name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: unlink %s: %v", step, name, err)
			}
			delete(shadow, name)
		}
	}
	rep, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("fsck after %d random ops: %v", ops, rep.Problems)
	}
	// Final full-content verification.
	for name, sf := range shadow {
		f, err := fs.Open(name, Root, false)
		if err != nil {
			t.Fatal(err)
		}
		if sf.size == 0 {
			continue
		}
		got := make([]byte, sf.size)
		if _, err := f.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, sf.size)
		for off, b := range sf.data {
			want[off] = b
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s final content mismatch", name)
		}
	}
}
