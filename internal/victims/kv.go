package victims

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// KV record framing: one record per device block.
const (
	kvMagic     = 0x4B565231 // "KVR1"
	kvHeader    = 28         // magic u32, key u64, seq u64, valLen u32, crc u32
	kvMagicOff  = 0
	kvKeyOff    = 4
	kvSeqOff    = 12
	kvLenOff    = 20
	kvCRCOff    = 24
	kvCacheWays = 64 // direct-mapped page-cache frames
)

// KVVictim's key set: kvKeys keys of kvValueBytes bytes each.
const (
	kvKeys       = 64
	kvValueBytes = 64
)

var kvTable = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors a KVStore read can return. All three are DETECTED
// outcomes — the record framing caught the redirect — as opposed to the
// silent outcome where a stale-but-well-formed copy of the same key
// comes back.
var (
	// ErrKeyLost: the index points at an LBA that no longer holds a
	// mapped block (the translation was trimmed or redirected into an
	// unmapped page).
	ErrKeyLost = errors.New("victims: key lost (record block unmapped)")
	// ErrMisdirected: the block holds a valid record for a DIFFERENT
	// key — the translation now points at someone else's record.
	ErrMisdirected = errors.New("victims: read misdirected to another key's record")
	// ErrCorruptRecord: the block contents fail magic or CRC framing.
	ErrCorruptRecord = errors.New("victims: record framing corrupt")
)

// KVStore is a minimal append-only key-value store over one namespace:
// every Put appends a CRC-framed record block at the log head and
// updates an in-memory index (key → LBA); Get goes through a
// direct-mapped page cache of preallocated frames. Its corruption
// surface under an L2P flip is the interesting one for §5: the index is
// in host memory, so a flipped translation cannot lose metadata — it
// misdirects a record read, and the per-record framing (magic, key echo,
// CRC) decides loudly. Steady-state Get performs zero heap allocations.
// Its records travel nvme.PathDirect.
type KVStore struct {
	dev *nvme.Device
	ns  *nvme.Namespace

	index map[uint64]ftl.LBA
	head  ftl.LBA // next append position
	seq   uint64

	frames []byte    // kvCacheWays preallocated block frames
	tags   []ftl.LBA // frame tag, or ^0 when empty
	block  int       // device block size
}

// NewKVStore initializes an empty store over the namespace.
func NewKVStore(dev *nvme.Device, ns *nvme.Namespace) *KVStore {
	s := &KVStore{
		dev:    dev,
		ns:     ns,
		index:  make(map[uint64]ftl.LBA),
		block:  dev.BlockBytes(),
		frames: make([]byte, kvCacheWays*dev.BlockBytes()),
		tags:   make([]ftl.LBA, kvCacheWays),
	}
	for i := range s.tags {
		s.tags[i] = ^ftl.LBA(0)
	}
	return s
}

// RecordLBA returns the namespace-relative LBA currently holding key's
// record (white-box accessor for aiming flips and snapshotting PPNs).
func (s *KVStore) RecordLBA(key uint64) (ftl.LBA, bool) {
	lba, ok := s.index[key]
	return lba, ok
}

func (s *KVStore) frame(idx int) []byte {
	return s.frames[idx*s.block : (idx+1)*s.block]
}

// Put appends a record for key at the log head.
func (s *KVStore) Put(key uint64, val []byte) error {
	if len(val) > s.block-kvHeader {
		return fmt.Errorf("victims: value %d bytes exceeds record capacity %d", len(val), s.block-kvHeader)
	}
	if uint64(s.head) >= s.ns.NumLBAs {
		return errors.New("victims: kv log full")
	}
	lba := s.head
	idx := int(uint64(lba) % kvCacheWays)
	fr := s.frame(idx)
	for i := range fr {
		fr[i] = 0
	}
	binary.LittleEndian.PutUint32(fr[kvMagicOff:], kvMagic)
	binary.LittleEndian.PutUint64(fr[kvKeyOff:], key)
	binary.LittleEndian.PutUint64(fr[kvSeqOff:], s.seq)
	binary.LittleEndian.PutUint32(fr[kvLenOff:], uint32(len(val)))
	copy(fr[kvHeader:], val)
	crc := crc32.Update(0, kvTable, fr[:kvCRCOff])
	crc = crc32.Update(crc, kvTable, fr[kvHeader:kvHeader+len(val)])
	binary.LittleEndian.PutUint32(fr[kvCRCOff:], crc)
	if err := s.dev.Write(s.ns, lba, fr, nvme.PathDirect); err != nil {
		s.tags[idx] = ^ftl.LBA(0)
		return err
	}
	s.tags[idx] = lba // write-through: the frame now caches this block
	s.index[key] = lba
	s.head++
	s.seq++
	return nil
}

// Get reads key's value into dst (which must be large enough) and
// returns its length. The steady-state path — cache hit or miss —
// allocates nothing: errors are sentinels and the read lands in a
// preallocated frame.
func (s *KVStore) Get(key uint64, dst []byte) (int, error) {
	lba, ok := s.index[key]
	if !ok {
		return 0, ErrKeyLost
	}
	idx := int(uint64(lba) % kvCacheWays)
	fr := s.frame(idx)
	if s.tags[idx] != lba {
		s.tags[idx] = ^ftl.LBA(0)
		mapped, err := s.dev.Read(s.ns, lba, fr, nvme.PathDirect)
		if err != nil {
			return 0, err
		}
		if !mapped {
			return 0, ErrKeyLost
		}
		s.tags[idx] = lba
	}
	if binary.LittleEndian.Uint32(fr[kvMagicOff:]) != kvMagic {
		s.tags[idx] = ^ftl.LBA(0)
		return 0, ErrCorruptRecord
	}
	n := int(binary.LittleEndian.Uint32(fr[kvLenOff:]))
	if n > s.block-kvHeader {
		s.tags[idx] = ^ftl.LBA(0)
		return 0, ErrCorruptRecord
	}
	crc := crc32.Update(0, kvTable, fr[:kvCRCOff])
	crc = crc32.Update(crc, kvTable, fr[kvHeader:kvHeader+n])
	if crc != binary.LittleEndian.Uint32(fr[kvCRCOff:]) {
		s.tags[idx] = ^ftl.LBA(0)
		return 0, ErrCorruptRecord
	}
	if binary.LittleEndian.Uint64(fr[kvKeyOff:]) != key {
		s.tags[idx] = ^ftl.LBA(0)
		return 0, ErrMisdirected
	}
	return copy(dst, fr[kvHeader:kvHeader+n]), nil
}

// KVDetail is KVVictim's fine-grained Check classification.
type KVDetail struct {
	// Intact keys returned their exact value.
	Intact int
	// Lost keys returned ErrKeyLost (translation vanished).
	Lost int
	// Misdirected keys returned ErrMisdirected or ErrCorruptRecord —
	// the framing caught a redirect.
	Misdirected int
	// DeviceErrors are loud device-level failures (corrupt-translation
	// errors surfacing before the framing even runs).
	DeviceErrors int
	// Silent keys returned success with the WRONG value — the outcome
	// framing is supposed to make impossible.
	Silent int
}

func (d KVDetail) String() string {
	return fmt.Sprintf("intact=%d lost=%d misdirected=%d deverr=%d silent=%d",
		d.Intact, d.Lost, d.Misdirected, d.DeviceErrors, d.Silent)
}

// KVVictim arms a KVStore with a deterministic key set and classifies
// every key on Check. Corrupted counts keys that did not come back
// intact; the KVDetail splits those into detected (lost, misdirected,
// device error) and silent outcomes.
type KVVictim struct {
	Dev *nvme.Device
	NS  *nvme.Namespace
	// Obs, when non-nil, receives the EvVerdict event per Check.
	Obs *obs.Registry

	store  *KVStore
	ppns   []uint32
	val    []byte // one value: kvValueBytes, capped by the record capacity
	got    []byte
	detail KVDetail
}

// kvValueFill is the deterministic value byte for key k, offset j.
func kvValueFill(k uint64, j int) byte { return byte(k*167+uint64(j)*11) ^ 0x69 }

// kvKey maps arm index i to its key (spread out so adjacent records
// have non-adjacent keys).
func kvKey(i int) uint64 { return uint64(i)*2654435761 + 12345 }

// Arm builds the store and writes the key set. Bindings are not
// consulted: records are appended from LBA 0 up, covering the log head
// region the way a real store would.
func (v *KVVictim) Arm([]attack.Binding) error {
	v.store = NewKVStore(v.Dev, v.NS)
	v.val = make([]byte, min(kvValueBytes, v.store.block-kvHeader))
	v.got = make([]byte, v.store.block)
	v.ppns = v.ppns[:0]
	for i := 0; i < kvKeys; i++ {
		k := kvKey(i)
		for j := range v.val {
			v.val[j] = kvValueFill(k, j)
		}
		if err := v.store.Put(k, v.val); err != nil {
			return err
		}
		lba, _ := v.store.RecordLBA(k)
		v.ppns = append(v.ppns, uint32(v.Dev.FTL().PPNOf(v.NS.StartLBA+lba)))
	}
	return nil
}

// TargetLBA returns the namespace-relative LBA of the first armed key's
// record — the place to aim a flip. Valid after Arm.
func (v *KVVictim) TargetLBA() (ftl.LBA, error) {
	if v.store == nil {
		return 0, errors.New("victims: KVVictim not armed")
	}
	lba, ok := v.store.RecordLBA(kvKey(0))
	if !ok {
		return 0, errors.New("victims: first key has no record")
	}
	return lba, nil
}

// Detail returns the classification of the last Check.
func (v *KVVictim) Detail() KVDetail { return v.detail }

// Check gets every key back, bypassing the page cache (tags are
// dropped first) so each verdict reflects the device, not the frame.
func (v *KVVictim) Check() (attack.VictimReport, error) {
	if v.store == nil {
		return attack.VictimReport{}, errors.New("victims: KVVictim not armed")
	}
	for i := range v.store.tags {
		v.store.tags[i] = ^ftl.LBA(0)
	}
	var det KVDetail
	rep := attack.VictimReport{Checked: kvKeys}
	for i := 0; i < kvKeys; i++ {
		k := kvKey(i)
		if lba, ok := v.store.RecordLBA(k); ok {
			if uint32(v.Dev.FTL().PPNOf(v.NS.StartLBA+lba)) != v.ppns[i] {
				rep.Remapped++
			}
		}
		n, err := v.store.Get(k, v.got)
		switch {
		case errors.Is(err, ErrKeyLost):
			det.Lost++
		case errors.Is(err, ErrMisdirected) || errors.Is(err, ErrCorruptRecord):
			det.Misdirected++
		case err != nil:
			det.DeviceErrors++
		default:
			ok := n == len(v.val)
			if ok {
				for j := 0; j < n; j++ {
					if v.got[j] != kvValueFill(k, j) {
						ok = false
						break
					}
				}
			}
			if ok {
				det.Intact++
			} else {
				det.Silent++
			}
		}
	}
	rep.Corrupted = rep.Checked - det.Intact
	v.detail = det
	emitVerdict(v.Obs, v.Dev, rep.Checked, rep.Corrupted,
		det.Lost+det.Misdirected+det.DeviceErrors)
	return rep, nil
}
