package ext4

import (
	"math/rand"
	"reflect"
	"testing"
)

// refBitmapFindFree is bitmapFindFree as a byte-at-a-time scan, the
// implementation the word-wise scan replaced, kept as its reference.
func (fs *FS) refBitmapFindFree(start, lo, hi uint64) (uint64, bool, error) {
	for blkIdx := lo / (BlockSize * 8); blkIdx*BlockSize*8 < hi; blkIdx++ {
		if err := fs.dev.ReadBlock(start+blkIdx, fs.buf); err != nil {
			return 0, false, err
		}
		base := blkIdx * BlockSize * 8
		for byteIdx := 0; byteIdx < BlockSize; byteIdx++ {
			b := fs.buf[byteIdx]
			if b == 0xFF {
				continue
			}
			for bit := 0; bit < 8; bit++ {
				idx := base + uint64(byteIdx)*8 + uint64(bit)
				if idx < lo || idx >= hi {
					continue
				}
				if b&(1<<bit) == 0 {
					return idx, true, nil
				}
			}
		}
	}
	return 0, false, nil
}

// TestBitmapFindFreeMatchesByteScan compares the word-wise scan with the
// byte loop on random three-block bitmaps, from nearly full to half
// free, with lo and hi on and off word and block boundaries (and lo
// past hi): the same index, the same answer and the same block reads.
func TestBitmapFindFreeMatchesByteScan(t *testing.T) {
	const (
		blocks = 3
		nbits  = blocks * BlockSize * 8
		start  = 1 // the bitmap's first device block
	)
	rec := &recDevice{BlockDevice: NewMemDevice(start + blocks)}
	fs := openFS(rec, superblock{})
	edges := []uint64{0, 1, 63, 64, 65, 127, 128, 4095, BlockSize * 8, BlockSize*8 + 1, 2*BlockSize*8 - 1, 2 * BlockSize * 8, nbits - 64, nbits - 1, nbits}
	rng := rand.New(rand.NewSource(1))
	pick := func() uint64 {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return uint64(rng.Intn(nbits + 1))
	}
	bitmap := make([]byte, blocks*BlockSize)
	for trial := 0; trial < 400; trial++ {
		for i := range bitmap {
			bitmap[i] = 0xFF
		}
		free := []int{0, 1, 3, 50, nbits / 2}[trial%5]
		for i := 0; i < free; i++ {
			bit := pick() % nbits
			if rng.Intn(4) == 0 {
				bit = uint64(rng.Intn(nbits))
			}
			bitmap[bit/8] &^= 1 << (bit % 8)
		}
		for b := 0; b < blocks; b++ {
			if err := rec.BlockDevice.WriteBlock(start+uint64(b), bitmap[b*BlockSize:(b+1)*BlockSize]); err != nil {
				t.Fatal(err)
			}
		}
		for q := 0; q < 25; q++ {
			lo, hi := pick(), pick()
			rec.log = rec.log[:0]
			idx, ok, err := fs.bitmapFindFree(start, lo, hi)
			got := []any{idx, ok, err, append([]devOp(nil), rec.log...)}
			rec.log = rec.log[:0]
			idx, ok, err = fs.refBitmapFindFree(start, lo, hi)
			want := []any{idx, ok, err, append([]devOp(nil), rec.log...)}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, [%d, %d): got %v, byte scan %v", trial, lo, hi, got, want)
			}
		}
	}
}
