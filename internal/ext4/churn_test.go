package ext4

import (
	"fmt"
	"testing"
)

// TestSprayChurn reproduces the exploit campaign's filesystem usage
// pattern: cycles of (create many sparse indirect files in a fresh dir,
// then unlink the previous cycle's set), with consistency checks.
func TestSprayChurn(t *testing.T) {
	fs := newFS(t, 40960, MkfsOptions{InodeCount: 16384})
	cred := Cred{UID: 1000, GID: 1000}
	if err := fs.Mkdir("/home", Root, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/home/attacker", Root, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Chown("/home/attacker", Root, 1000, 1000); err != nil {
		t.Fatal(err)
	}
	const perCycle = 700
	var prev []string
	blockData := make([]byte, BlockSize)
	for cycle := 0; cycle < 4; cycle++ {
		dir := fmt.Sprintf("/home/attacker/c%d", cycle)
		if err := fs.Mkdir(dir, cred, 0o755); err != nil {
			t.Fatalf("cycle %d mkdir: %v", cycle, err)
		}
		var cur []string
		for i := 0; i < perCycle; i++ {
			path := fmt.Sprintf("%s/f%04d", dir, i)
			f, err := fs.Create(path, cred, CreateOptions{Mode: 0o644, UseIndirect: true})
			if err != nil {
				t.Fatalf("cycle %d create %d: %v", cycle, i, err)
			}
			if _, err := f.WriteAt(blockData, 12*BlockSize); err != nil {
				t.Fatalf("cycle %d write %d: %v", cycle, i, err)
			}
			// Tail block like the sprayer does.
			if _, err := f.WriteAt([]byte{0xEE}, (12+64)*BlockSize-1); err != nil {
				t.Fatalf("cycle %d tail %d: %v", cycle, i, err)
			}
			cur = append(cur, path)
		}
		for _, p := range prev {
			if err := fs.Unlink(p, cred); err != nil {
				t.Fatalf("cycle %d unlink %s: %v", cycle, p, err)
			}
		}
		prev = cur
		rep, err := fs.Fsck()
		if err != nil {
			t.Fatalf("cycle %d fsck: %v", cycle, err)
		}
		if len(rep.Problems) != 0 {
			t.Fatalf("cycle %d fsck problems: %v", cycle, rep.Problems[:min(5, len(rep.Problems))])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
