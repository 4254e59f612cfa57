package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// ckRecord is one persisted trial result: the experiment it belongs to,
// the fan-out sequence within that experiment (an experiment may call
// the trial engine several times), the trial index, and the gob-encoded
// result value. Records are framed with a u32 little-endian length so a
// torn tail (crash mid-write) is detected and discarded on resume.
type ckRecord struct {
	Exp   string
	Seq   int
	Trial int
	Data  []byte
}

type ckKey struct {
	exp   string
	seq   int
	trial int
}

// Checkpoint persists completed trial results so an interrupted
// experiment run can resume without recomputing them. Because trials are
// deterministic and identified by (experiment, fan-out sequence, trial
// index), a resumed run replays completed trials from the store and
// re-executes only the missing ones — producing byte-identical report
// output at any -parallel worker count.
//
// Limitations, by design: resumed trials contribute no per-trial
// metrics or trace events to the run's registry (the simulation never
// executes), and the store must be replayed against the same binary and
// experiment selection — a decode mismatch surfaces as the trial
// re-executing, never as corrupt output.
type Checkpoint struct {
	mu      sync.Mutex
	f       *os.File
	every   int
	pending int
	exp     string
	seq     int
	done    map[ckKey][]byte
	hits    int
	err     error
}

// OpenCheckpoint opens (or creates) a checkpoint store at path. every
// bounds how many completed trials may be pending before the store is
// flushed to disk (minimum 1). When resume is true, existing complete
// records are loaded and a torn tail is truncated; when false the store
// is recreated empty.
func OpenCheckpoint(path string, every int, resume bool) (*Checkpoint, error) {
	if every < 1 {
		every = 1
	}
	flags := os.O_RDWR | os.O_CREATE
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{f: f, every: every, done: make(map[ckKey][]byte)}
	if resume {
		good, err := c.load()
		if err != nil {
			f.Close()
			return nil, err
		}
		// Drop any torn tail and position for appending.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(good, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
	}
	return c, nil
}

// load scans complete records from the store and returns the offset of
// the last fully readable record's end. A short or undecodable tail is
// where an interrupted run stopped mid-write; it is not an error.
func (c *Checkpoint) load() (int64, error) {
	size, err := c.f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if _, err := c.f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := &countingReader{r: c.f}
	var good int64
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return good, nil
			}
			return 0, err
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if int64(n) > size-r.n {
			return good, nil // length prefix runs past EOF: torn tail
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return good, nil
			}
			return 0, err
		}
		var rec ckRecord
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&rec); err != nil {
			return good, nil // torn or corrupt tail: resume before it
		}
		c.done[ckKey{rec.Exp, rec.Seq, rec.Trial}] = rec.Data
		good = r.n
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// SetExperiment scopes subsequent trial records to the experiment id and
// restarts the fan-out sequence. Call it before each experiment runs
// (cmd/repro does this per selected experiment).
func (c *Checkpoint) SetExperiment(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exp = id
	c.seq = 0
}

// beginPhase allocates the next fan-out sequence number within the
// current experiment. Each runTrialsObs call is one phase.
func (c *Checkpoint) beginPhase() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return c.seq
}

// lookup returns the stored result bytes for a trial, if present.
func (c *Checkpoint) lookup(seq, trial int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.done[ckKey{c.exp, seq, trial}]
	if ok {
		c.hits++
	}
	return data, ok
}

// record persists one completed trial. Write errors latch: recording
// continues in memory so the run finishes, and the error surfaces at
// Close.
func (c *Checkpoint) record(seq, trial int, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := ckKey{c.exp, seq, trial}
	if _, dup := c.done[key]; dup {
		return
	}
	c.done[key] = data
	if c.err != nil {
		return
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(ckRecord{Exp: c.exp, Seq: seq, Trial: trial, Data: data}); err != nil {
		c.err = err
		return
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(body.Len()))
	if _, err := c.f.Write(hdr[:]); err != nil {
		c.err = err
		return
	}
	if _, err := c.f.Write(body.Bytes()); err != nil {
		c.err = err
		return
	}
	c.pending++
	if c.pending >= c.every {
		c.pending = 0
		if err := c.f.Sync(); err != nil {
			c.err = err
		}
	}
}

// Hits returns how many trials were satisfied from the store.
func (c *Checkpoint) Hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Close flushes and closes the store, reporting the first error seen
// over its lifetime.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	syncErr := c.f.Sync()
	closeErr := c.f.Close()
	switch {
	case c.err != nil:
		return fmt.Errorf("experiments: checkpoint: %w", c.err)
	case syncErr != nil:
		return fmt.Errorf("experiments: checkpoint: %w", syncErr)
	case closeErr != nil:
		return fmt.Errorf("experiments: checkpoint: %w", closeErr)
	}
	return nil
}

// encodeTrial/decodeTrial are the per-result codecs. Result types must
// be gob-encodable (exported fields); decode failures on resume mean
// the stored record came from a different binary and the trial simply
// re-executes.
func encodeTrial[T any](v T) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeTrial[T any](data []byte, v *T) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
