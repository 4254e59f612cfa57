package ext4

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// This property test drives randomized op sequences — create/write,
// append, unlink, commit, remount, crash-at-journal-offset, and
// post-crash metadata bit flips — against a journaled MetaChecksum
// volume. The invariant is the §5 claim the mode exists to demonstrate:
// after every reopen the volume is EITHER exactly one committed state
// (clean fsck, all committed contents verify) OR the damage is detected
// and reported as a checksum error. Silent corruption — a content
// mismatch or a non-checksum fsck problem — fails the test.

// propOpsPerCommit bounds ops between commits so one transaction always
// fits a single descriptor and commits are never split mid-op.
const propOpsPerCommit = 5

type propModel map[string][]byte

func (m propModel) clone() propModel {
	c := make(propModel, len(m))
	for k, v := range m {
		c[k] = append([]byte(nil), v...)
	}
	return c
}

// verifyState compares the mounted volume against one model state.
// Verdicts: "exact" (everything matches), "detected" (only checksum
// errors, everything else matches), "no" (anything silently wrong).
func verifyState(fs *FS, state propModel) string {
	paths := make([]string, 0, len(state))
	for p := range state {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	verdict := "exact"
	for _, p := range paths {
		want := state[p]
		f, err := fs.Open(p, Root, false)
		if errors.Is(err, ErrInodeChecksum) || errors.Is(err, ErrChecksum) {
			verdict = "detected"
			continue
		}
		if err != nil {
			return "no"
		}
		got := make([]byte, len(want))
		if len(want) > 0 {
			if _, err := f.ReadAt(got, 0); err != nil {
				if errors.Is(err, ErrInodeChecksum) || errors.Is(err, ErrChecksum) {
					verdict = "detected"
					continue
				}
				return "no"
			}
		}
		if st, err := fs.Stat(p, Root); err != nil || st.Size != uint64(len(want)) {
			return "no"
		}
		if !bytes.Equal(got, want) {
			return "no"
		}
	}
	return verdict
}

// fsckVerdict runs fsck and classifies: "clean", "detected" (every
// problem mentions a checksum), or "no".
func fsckVerdict(fs *FS) string {
	rep, err := fs.Fsck()
	if err != nil {
		if errors.Is(err, ErrInodeChecksum) || errors.Is(err, ErrChecksum) {
			return "detected"
		}
		return "no"
	}
	if len(rep.Problems) == 0 {
		return "clean"
	}
	for _, p := range rep.Problems {
		if !strings.Contains(p, "checksum") {
			return "no"
		}
	}
	return "detected"
}

func TestJournalFsckProperty(t *testing.T) {
	seqs := 24
	if testing.Short() {
		seqs = 6
	}
	for seq := 0; seq < seqs; seq++ {
		seq := seq
		t.Run(fmt.Sprintf("seq%02d", seq), func(t *testing.T) {
			runPropSequence(t, rand.New(rand.NewSource(int64(seq)*7919+13)))
		})
	}
}

func runPropSequence(t *testing.T, rng *rand.Rand) {
	under := NewMemDevice(1024)
	jd, err := WrapJournal(under, 0)
	if err != nil {
		t.Fatalf("WrapJournal: %v", err)
	}
	if err := Mkfs(jd, MkfsOptions{MetaChecksum: true}); err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	if err := jd.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	fs, err := Mount(jd)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}

	committed := propModel{} // state as of the last commit
	pending := propModel{}   // state including uncommitted ops
	sinceCommit := 0
	nextFile := 0

	commit := func() {
		if err := jd.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		committed = pending.clone()
		sinceCommit = 0
	}

	randomOp := func() {
		switch op := rng.Intn(4); {
		case op == 0 && len(pending) > 0: // unlink
			var paths []string
			for p := range pending {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			victim := paths[rng.Intn(len(paths))]
			if err := fs.Unlink(victim, Root); err != nil {
				t.Fatalf("Unlink %s: %v", victim, err)
			}
			delete(pending, victim)
		case op == 1 && len(pending) > 0: // append
			var paths []string
			for p := range pending {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			p := paths[rng.Intn(len(paths))]
			f, err := fs.Open(p, Root, true)
			if err != nil {
				t.Fatalf("Open %s: %v", p, err)
			}
			extra := make([]byte, 1+rng.Intn(BlockSize))
			rng.Read(extra)
			if _, err := f.WriteAt(extra, uint64(len(pending[p]))); err != nil {
				t.Fatalf("append %s: %v", p, err)
			}
			pending[p] = append(pending[p], extra...)
		default: // create+write
			p := fmt.Sprintf("/f%03d", nextFile)
			nextFile++
			f, err := fs.Create(p, Root, CreateOptions{
				Mode:        0o644,
				UseIndirect: rng.Intn(2) == 0,
			})
			if err != nil {
				t.Fatalf("Create %s: %v", p, err)
			}
			content := make([]byte, rng.Intn(3*BlockSize))
			rng.Read(content)
			if len(content) > 0 {
				if _, err := f.WriteAt(content, 0); err != nil {
					t.Fatalf("write %s: %v", p, err)
				}
			}
			pending[p] = content
		}
		sinceCommit++
		if sinceCommit >= propOpsPerCommit {
			commit()
		}
	}

	// reopen replays and re-mounts; accept must hold for one of the
	// candidate states. flipped reports whether metadata was damaged
	// on purpose (checksum errors allowed).
	reopen := func(candidates []propModel, flipped bool) bool {
		jd, err = WrapJournal(under, 0)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		fs, err = Mount(jd)
		if err != nil {
			if flipped && (errors.Is(err, ErrInodeChecksum) || errors.Is(err, ErrChecksum)) {
				return false // detected at mount: acceptable, sequence over
			}
			t.Fatalf("remount: %v", err)
		}
		switch v := fsckVerdict(fs); v {
		case "clean":
		case "detected":
			if !flipped {
				t.Fatalf("checksum problems without injected damage")
			}
		default:
			rep, _ := fs.Fsck()
			t.Fatalf("silent fsck corruption (flipped=%v): %v", flipped, rep.Problems)
		}
		for _, state := range candidates {
			switch verifyState(fs, state) {
			case "exact":
				committed = state
				pending = state.clone()
				return true
			case "detected":
				if flipped {
					return false // detected: acceptable, sequence over
				}
			}
		}
		t.Fatalf("no candidate state matches after reopen (flipped=%v): silent corruption", flipped)
		return false
	}

	steps := 8 + rng.Intn(8)
	for step := 0; step < steps; step++ {
		for i := 0; i < 1+rng.Intn(propOpsPerCommit); i++ {
			randomOp()
		}
		switch rng.Intn(4) {
		case 0: // clean remount
			commit()
			if !reopen([]propModel{committed}, false) {
				return
			}
		case 1: // crash at a random journal offset during commit
			jd.CrashAfter(rng.Intn(2*propOpsPerCommit*4 + 3))
			_ = jd.Commit()
			// The transaction either landed whole or not at all.
			if !reopen([]propModel{pending.clone(), committed}, false) {
				return
			}
		case 2: // clean commit, then flip a metadata or journal bit
			commit()
			if rng.Intn(2) == 0 {
				start, length := jd.LogRange()
				flipBit(t, under, start+uint64(rng.Intn(int(length))), rng)
			} else {
				start, length := fs.InodeTableRange()
				flipBit(t, under, start+uint64(rng.Intn(int(length))), rng)
			}
			if !reopen([]propModel{committed}, true) {
				return
			}
			// Damage may be latent (hit a free slot): keep going only
			// if everything still verified exactly, which reopen
			// signalled by returning true.
		default: // keep operating
		}
	}
	commit()
	reopen([]propModel{committed}, false)
}

func flipBit(t *testing.T, dev BlockDevice, blk uint64, rng *rand.Rand) {
	t.Helper()
	buf := make([]byte, BlockSize)
	if err := dev.ReadBlock(blk, buf); err != nil {
		t.Fatalf("flip read: %v", err)
	}
	buf[rng.Intn(BlockSize)] ^= 1 << rng.Intn(8)
	if err := dev.WriteBlock(blk, buf); err != nil {
		t.Fatalf("flip write: %v", err)
	}
}
