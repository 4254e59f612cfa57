package ext4

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The directory operations as a linear walk of the entries, decoding
// every entry with direntAt on every visit: the implementation the
// decoded-block cache (dir.go) replaced, kept as its reference.

func (fs *FS) refDirScan(ino uint32, in *inode, fn func(blk []byte, fileBlk uint64, off int, ino uint32, recLen int, name []byte, ftype byte) (done bool, err error)) error {
	fs.curIno = ino
	nBlocks := in.size / BlockSize
	buf := fs.dirBuf
	for b := uint64(0); b < nBlocks; b++ {
		if err := fs.readFileBlock(in, b, buf); err != nil {
			return err
		}
		off := 0
		for off < BlockSize {
			entIno, recLen, name, ftype, ok := direntAt(buf, off)
			if !ok {
				return fmt.Errorf("ext4: corrupt directory %d (block %d, offset %d)", ino, b, off)
			}
			done, err := fn(buf, b, off, entIno, recLen, name, ftype)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			off += recLen
		}
	}
	return nil
}

func (fs *FS) refDirLookup(ino uint32, in *inode, name string) (uint32, error) {
	var found uint32
	err := fs.refDirScan(ino, in, func(_ []byte, _ uint64, _ int, entIno uint32, _ int, entName []byte, _ byte) (bool, error) {
		if entIno != 0 && string(entName) == name {
			found = entIno
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

func (fs *FS) refDirAdd(ino uint32, in *inode, name string, child uint32, ftype byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	need := direntSpace(len(name))
	inserted := false
	err := fs.refDirScan(ino, in, func(blk []byte, fileBlk uint64, off int, entIno uint32, recLen int, entName []byte, _ byte) (bool, error) {
		used := 0
		if entIno != 0 {
			used = direntSpace(len(entName))
		}
		if recLen-used < need {
			return false, nil
		}
		if entIno != 0 {
			binary.LittleEndian.PutUint16(blk[off+4:], uint16(used))
			putDirent(blk, off+used, child, recLen-used, name, ftype)
		} else {
			putDirent(blk, off, child, recLen, name, ftype)
		}
		fs.curIno = ino
		if err := fs.writeFileBlock(in, fileBlk, blk); err != nil {
			return false, err
		}
		inserted = true
		return true, nil
	})
	if err != nil {
		return err
	}
	if inserted {
		return nil
	}
	fs.curIno = ino
	blk := fs.dirBuf
	clear(blk)
	putDirent(blk, 0, child, BlockSize, name, ftype)
	newIdx := in.size / BlockSize
	if err := fs.writeFileBlock(in, newIdx, blk); err != nil {
		return err
	}
	in.size += BlockSize
	return fs.writeInode(ino, in)
}

func (fs *FS) refDirRemove(ino uint32, in *inode, name string) error {
	removed := false
	var prevOff, prevRec = -1, 0
	var prevBlk uint64
	err := fs.refDirScan(ino, in, func(blk []byte, fileBlk uint64, off int, entIno uint32, recLen int, entName []byte, _ byte) (bool, error) {
		if entIno != 0 && string(entName) == name {
			le := binary.LittleEndian
			if prevOff >= 0 && prevBlk == fileBlk {
				le.PutUint16(blk[prevOff+4:], uint16(prevRec+recLen))
			} else {
				le.PutUint32(blk[off:], 0)
			}
			fs.curIno = ino
			if err := fs.writeFileBlock(in, fileBlk, blk); err != nil {
				return false, err
			}
			removed = true
			return true, nil
		}
		if prevBlk != fileBlk {
			prevOff = -1
		}
		prevOff, prevRec, prevBlk = off, recLen, fileBlk
		return false, nil
	})
	if err != nil {
		return err
	}
	if !removed {
		return ErrNotFound
	}
	return nil
}

func (fs *FS) refDirIsEmpty(ino uint32, in *inode) (bool, error) {
	empty := true
	err := fs.refDirScan(ino, in, func(_ []byte, _ uint64, _ int, entIno uint32, _ int, name []byte, _ byte) (bool, error) {
		if entIno != 0 && string(name) != "." && string(name) != ".." {
			empty = false
			return true, nil
		}
		return false, nil
	})
	return empty, err
}

func (fs *FS) refDirList(ino uint32, in *inode) ([]DirEntry, error) {
	var out []DirEntry
	err := fs.refDirScan(ino, in, func(_ []byte, _ uint64, _ int, entIno uint32, _ int, name []byte, ftype byte) (bool, error) {
		if entIno != 0 && string(name) != "." && string(name) != ".." {
			out = append(out, DirEntry{Ino: entIno, Name: string(name), IsDir: ftype == ftypeDir})
		}
		return false, nil
	})
	return out, err
}

// devOp is one BlockDevice call as recDevice logs it.
type devOp struct {
	write bool
	lba   uint64
}

// recDevice logs the (op, block) sequence of every call it forwards.
type recDevice struct {
	BlockDevice
	log []devOp
}

func (d *recDevice) ReadBlock(lba uint64, buf []byte) error {
	d.log = append(d.log, devOp{false, lba})
	return d.BlockDevice.ReadBlock(lba, buf)
}

func (d *recDevice) WriteBlock(lba uint64, data []byte) error {
	d.log = append(d.log, devOp{true, lba})
	return d.BlockDevice.WriteBlock(lba, data)
}

// dirOpNames is the name pool of the op encoding, one name per operand
// byte: ".", "..", the empty and an over-long name (both rejected by
// checkName), and distinct names of 1 to 60 bytes. Most adds make a new
// name, so a removal often reaches past block 0; repeated ones make
// duplicate entries.
var dirOpNames = func() []string {
	names := []string{".", "..", "", strings.Repeat("z", 61), "q"}
	for i := len(names); i < 256; i++ {
		name := fmt.Sprintf("%02x", i)
		names = append(names, name+strings.Repeat("x", (i*37)%59))
	}
	return names
}()

// dirOpSize is the bytes one encoded op takes: an opcode and four
// operands.
const dirOpSize = 5

// dirOpsVolume is one side of the differential run: a small volume with
// directory /d, behind a recording device.
type dirOpsVolume struct {
	mem *MemDevice
	rec *recDevice
	fs  *FS
	ino uint32
}

func newDirOpsVolume(tb testing.TB) *dirOpsVolume {
	tb.Helper()
	mem := NewMemDevice(64)
	if err := Mkfs(mem, MkfsOptions{InodeCount: 16}); err != nil {
		tb.Fatal(err)
	}
	rec := &recDevice{BlockDevice: mem}
	fs, err := Mount(rec)
	if err != nil {
		tb.Fatal(err)
	}
	if err := fs.Mkdir("/d", Root, 0o755); err != nil {
		tb.Fatal(err)
	}
	st, err := fs.Stat("/d", Root)
	if err != nil {
		tb.Fatal(err)
	}
	return &dirOpsVolume{mem: mem, rec: rec, fs: fs, ino: st.Ino}
}

// phys maps the directory's file block b to its device block; 0 when
// the block is a hole.
func (v *dirOpsVolume) phys(tb testing.TB, in *inode, b uint64) uint64 {
	tb.Helper()
	phys, err := v.fs.bmap(in, b, false)
	if err != nil {
		tb.Fatal(err)
	}
	return uint64(phys)
}

// errString renders an error for comparison; nil is "".
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runDirOps decodes ops from data, dirOpSize bytes each, and runs every
// op on two identical volumes: through dir.go's operations on one and
// the reference walk on the other. Ops 6 and 7 write a corruption
// straight into both devices' copy of a directory block, a random byte
// or one header byte of an entry, so a decode reused for bytes the
// device no longer holds shows. After each op the results, error
// strings, device call logs and device bytes must be equal. It returns
// the most blocks the directory had.
func runDirOps(tb testing.TB, data []byte) (maxBlocks uint64) {
	tb.Helper()
	got, want := newDirOpsVolume(tb), newDirOpsVolume(tb)
	var gotIn, wantIn inode
	raw := make([]byte, BlockSize)
	for step := 0; len(data) >= dirOpSize; step, data = step+1, data[dirOpSize:] {
		op, a, b, c, d := data[0]%8, data[1], data[2], data[3], data[4]
		name := dirOpNames[int(a)%len(dirOpNames)]
		got.rec.log, want.rec.log = got.rec.log[:0], want.rec.log[:0]
		if err := got.fs.readInode(got.ino, &gotIn); err != nil {
			tb.Fatal(err)
		}
		if err := want.fs.readInode(want.ino, &wantIn); err != nil {
			tb.Fatal(err)
		}
		nBlocks := wantIn.size / BlockSize
		maxBlocks = max(maxBlocks, nBlocks)
		var what string
		var gotRes, wantRes any
		switch op {
		case 0, 1:
			what = fmt.Sprintf("add %q ino %d type %d", name, b, c)
			gotRes = errString(got.fs.dirAdd(got.ino, &gotIn, name, uint32(b), c))
			wantRes = errString(want.fs.refDirAdd(want.ino, &wantIn, name, uint32(b), c))
		case 2:
			what = fmt.Sprintf("lookup %q", name)
			ino, err := got.fs.dirLookup(got.ino, &gotIn, name)
			gotRes = fmt.Sprintf("%d %q", ino, errString(err))
			ino, err = want.fs.refDirLookup(want.ino, &wantIn, name)
			wantRes = fmt.Sprintf("%d %q", ino, errString(err))
		case 3:
			what = fmt.Sprintf("remove %q", name)
			gotRes = errString(got.fs.dirRemove(got.ino, &gotIn, name))
			wantRes = errString(want.fs.refDirRemove(want.ino, &wantIn, name))
		case 4:
			what = "isEmpty"
			empty, err := got.fs.dirIsEmpty(got.ino, &gotIn)
			gotRes = fmt.Sprintf("%t %q", empty, errString(err))
			empty, err = want.fs.refDirIsEmpty(want.ino, &wantIn)
			wantRes = fmt.Sprintf("%t %q", empty, errString(err))
		case 5:
			what = "list"
			ents, err := got.fs.dirList(got.ino, &gotIn)
			gotRes = []any{ents, errString(err)}
			ents, err = want.fs.refDirList(want.ino, &wantIn)
			wantRes = []any{ents, errString(err)}
		case 6, 7:
			blk := uint64(a) % max(nBlocks, 1)
			phys := want.phys(tb, &wantIn, blk)
			if got.phys(tb, &gotIn, blk) != phys {
				tb.Fatalf("step %d: file block %d maps to different device blocks", step, blk)
			}
			if phys == 0 {
				what = "corrupt a hole"
				break
			}
			if err := want.mem.ReadBlock(phys, raw); err != nil {
				tb.Fatal(err)
			}
			off := int(binary.LittleEndian.Uint16([]byte{b, c}))
			if op == 7 {
				// Header byte c of entry b, counted along the walk:
				// an inode number, recLen, nameLen or type.
				off = 0
				for k := 0; k < int(b); k++ {
					_, recLen, _, _, ok := direntAt(raw, off)
					if !ok || off+recLen >= BlockSize {
						break
					}
					off += recLen
				}
				off += int(c % direntHeader)
			}
			off %= BlockSize
			what = fmt.Sprintf("corrupt file block %d offset %d = %#x", blk, off, d)
			raw[off] = d
			for _, mem := range []*MemDevice{got.mem, want.mem} {
				if err := mem.WriteBlock(phys, raw); err != nil {
					tb.Fatal(err)
				}
			}
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			tb.Fatalf("step %d, %s: got %v, reference %v", step, what, gotRes, wantRes)
		}
		if !reflect.DeepEqual(got.rec.log, want.rec.log) {
			tb.Fatalf("step %d, %s: device calls %v, reference %v", step, what, got.rec.log, want.rec.log)
		}
		for lba := range want.mem.blocks {
			if !bytes.Equal(got.mem.blocks[lba], want.mem.blocks[lba]) {
				tb.Fatalf("step %d, %s: device block %d differs from the reference's", step, what, lba)
			}
		}
	}
	return maxBlocks
}

// randomDirOps encodes n random ops: mostly adds, so the directory
// grows past block 0, and corruptPct percent corruptions after the first
// clean ops. The corruptions are kept rare because once an entry header
// is corrupt every later walk stops there.
func randomDirOps(rng *rand.Rand, n, clean, corruptPct int) []byte {
	data := make([]byte, n*dirOpSize)
	rng.Read(data)
	for i := 0; i < n; i++ {
		var op byte
		switch r := rng.Intn(100); {
		case i >= clean && r < corruptPct:
			op = byte(6 + rng.Intn(2))
		case r < 60:
			op = 0
		case r < 75:
			op = 2
		case r < 90:
			op = 3
		default:
			op = byte(4 + rng.Intn(2))
		}
		data[i*dirOpSize] = op
	}
	return data
}

// TestDirOpsMatchReference runs random sequences of directory operations
// and corruptions against the linear-walk reference (see runDirOps): many
// short ones, and long ones that grow the directory past its 12 direct
// blocks before they corrupt it.
func TestDirOpsMatchReference(t *testing.T) {
	short, long := 150, 2
	if testing.Short() {
		short, long = 30, 1
	}
	for seed := 0; seed < short; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		runDirOps(t, randomDirOps(rng, 300, 0, []int{0, 2, 8}[seed%3]))
	}
	for seed := short; seed < short+long; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		if n := runDirOps(t, randomDirOps(rng, 4000, 3600, 5)); n <= NDirect {
			t.Fatalf("seed %d: the directory grew to %d blocks, never past its direct blocks", seed, n)
		}
	}
}

// FuzzDirOps runs fuzzed op sequences through runDirOps. Inputs are cut
// to 120 ops: the fuzzer minimizes every input that finds new coverage,
// and short inputs keep that quick.
func FuzzDirOps(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(randomDirOps(rand.New(rand.NewSource(seed)), 60, 0, 4))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runDirOps(t, data[:min(len(data), 120*dirOpSize)])
	})
}
