package ext4

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// This file implements a physical-block write-ahead journal in the
// data=journal style: every WriteBlock is buffered into the running
// transaction, Commit serializes the transaction into a log region at
// the tail of the volume (descriptor block, data blocks, commit record
// with a CRC-32C over the whole transaction), and only after the commit
// record is durable are the blocks checkpointed to their home locations.
// Opening the device replays any fully committed transaction and
// discards torn ones, so a crash at ANY journal offset yields either the
// pre-transaction or the post-transaction volume — never a half-written
// one. That atomicity is what turns the paper's §5 question into a
// runnable experiment: with the journal plus MetaChecksum inodes, a
// hammered metadata redirect is detected or rolled back instead of
// silently honoured.

// Journal on-disk format constants.
const (
	// journalMagicDesc / journalMagicCommit tag the two record blocks.
	journalMagicDesc   = 0x4A444E31 // "JDN1"
	journalMagicCommit = 0x4A434D31 // "JCM1"
	// DefaultJournalBlocks is the log size WrapJournal reserves when the
	// caller passes 0.
	DefaultJournalBlocks = 80
	// journalEntryBytes is one descriptor entry: home LBA (8) + CRC (4).
	journalEntryBytes = 12
	// journalDescHeader is magic (4) + seq (8) + count (4).
	journalDescHeader = 16
	// maxTxnBlocks is the per-transaction capacity of one descriptor.
	maxTxnBlocks = (BlockSize - journalDescHeader - 4) / journalEntryBytes
)

// Journal errors.
var (
	// ErrJournalFull reports a transaction that outgrew the log region.
	ErrJournalFull = errors.New("ext4: transaction exceeds journal capacity")
)

// JournalDevice wraps a BlockDevice with a write-ahead journal. It
// presents a volume shrunk by the log region (the tail blocks of the
// underlying device), so Mkfs/Mount work unchanged on top of it. It is
// not safe for concurrent use, matching FS.
type JournalDevice struct {
	under BlockDevice
	// logStart is the first underlying block of the log region;
	// logBlocks is its length. Exposed volume = [0, logStart).
	logStart  uint64
	logBlocks uint64

	// txn is the running transaction: home LBA -> pending block image.
	// txnOrder keeps first-write order for deterministic serialization.
	txn      map[uint64][]byte
	txnOrder []uint64
	seq      uint64

	// crashAfter, when >= 0, drops every underlying write after that
	// many more physical writes — the crash-at-journal-offset knob.
	crashAfter int64
	crashed    bool
}

var _ BlockDevice = (*JournalDevice)(nil)

// WrapJournal carves a log of logBlocks (0 = DefaultJournalBlocks) off
// the tail of under, replays any committed transaction left in the log,
// and returns the journaled view. Call it both to create a fresh
// journaled volume and to reopen one after a crash.
func WrapJournal(under BlockDevice, logBlocks uint64) (*JournalDevice, error) {
	if under.BlockBytes() != BlockSize {
		return nil, fmt.Errorf("ext4: journal needs %d-byte blocks, device has %d", BlockSize, under.BlockBytes())
	}
	if logBlocks == 0 {
		logBlocks = DefaultJournalBlocks
	}
	if logBlocks < 3 || logBlocks >= under.NumBlocks() {
		return nil, fmt.Errorf("ext4: journal of %d blocks does not fit a %d-block device", logBlocks, under.NumBlocks())
	}
	d := &JournalDevice{
		under:      under,
		logStart:   under.NumBlocks() - logBlocks,
		logBlocks:  logBlocks,
		txn:        make(map[uint64][]byte),
		crashAfter: -1,
	}
	if err := d.replay(); err != nil {
		return nil, err
	}
	return d, nil
}

// NumBlocks is the journaled view: the underlying size minus the log.
func (d *JournalDevice) NumBlocks() uint64 { return d.logStart }

// BlockBytes implements BlockDevice.
func (d *JournalDevice) BlockBytes() int { return BlockSize }

// LogRange returns the underlying block range [start, start+length) of
// the log region — the crash/corruption surface the fuzzer and the
// property test aim at.
func (d *JournalDevice) LogRange() (start, length uint64) {
	return d.logStart, d.logBlocks
}

// CrashAfter arranges for the device to "lose power" after n more
// physical writes reach the underlying device: later writes are silently
// dropped, exactly like a die that never happened. Pass it before the
// Commit whose journal offset you want to crash at.
func (d *JournalDevice) CrashAfter(n int) { d.crashAfter = int64(n) }

// ReadBlock serves buffered transaction blocks first (read-after-write),
// then the underlying device.
func (d *JournalDevice) ReadBlock(lba uint64, buf []byte) error {
	if lba >= d.logStart {
		return fmt.Errorf("ext4: journaled read of block %d beyond volume end %d", lba, d.logStart)
	}
	if img, ok := d.txn[lba]; ok {
		copy(buf, img)
		return nil
	}
	return d.under.ReadBlock(lba, buf)
}

// WriteBlock buffers the block into the running transaction; nothing
// reaches the home location until Commit checkpoints it. A transaction
// that would outgrow one descriptor is committed automatically first, so
// arbitrarily long op sequences work (at the cost of a smaller atomicity
// unit, like a real journal under pressure).
func (d *JournalDevice) WriteBlock(lba uint64, data []byte) error {
	if lba >= d.logStart {
		return fmt.Errorf("ext4: journaled write of block %d beyond volume end %d", lba, d.logStart)
	}
	if len(data) != BlockSize {
		return fmt.Errorf("ext4: journaled write of %d bytes, want %d", len(data), BlockSize)
	}
	if _, ok := d.txn[lba]; !ok {
		if len(d.txnOrder) >= d.txnCapacity() {
			if err := d.Commit(); err != nil {
				return err
			}
		}
		d.txnOrder = append(d.txnOrder, lba)
		d.txn[lba] = make([]byte, BlockSize)
	}
	copy(d.txn[lba], data)
	return nil
}

// txnCapacity bounds a transaction by both the descriptor format and the
// log region (descriptor + data + commit must fit).
func (d *JournalDevice) txnCapacity() int {
	c := int(d.logBlocks) - 2
	if c > maxTxnBlocks {
		c = maxTxnBlocks
	}
	return c
}

// physWrite is every underlying write; it implements the crash knob.
func (d *JournalDevice) physWrite(lba uint64, data []byte) error {
	if d.crashed {
		return nil // power is off: the write is lost, not an error
	}
	if d.crashAfter == 0 {
		d.crashed = true
		return nil
	}
	if d.crashAfter > 0 {
		d.crashAfter--
	}
	return d.under.WriteBlock(lba, data)
}

// Commit makes the running transaction durable: descriptor, data blocks
// and commit record go to the log in order, then every block is
// checkpointed home. An empty transaction is a no-op.
func (d *JournalDevice) Commit() error {
	if len(d.txnOrder) == 0 {
		return nil
	}
	n := uint64(len(d.txnOrder))
	if n+2 > d.logBlocks {
		return ErrJournalFull
	}
	d.seq++
	buf := make([]byte, BlockSize)

	// Descriptor: header plus (home LBA, CRC) per block, self-checksummed.
	binaryLE.PutUint32(buf[0:], journalMagicDesc)
	binaryLE.PutUint64(buf[4:], d.seq)
	binaryLE.PutUint32(buf[12:], uint32(n))
	txnCRC := crc32.Update(0, crcTable, buf[:journalDescHeader])
	for i, lba := range d.txnOrder {
		off := journalDescHeader + i*journalEntryBytes
		blockCRC := crc32.Update(0, crcTable, d.txn[lba])
		binaryLE.PutUint64(buf[off:], lba)
		binaryLE.PutUint32(buf[off+8:], blockCRC)
		txnCRC = crc32.Update(txnCRC, crcTable, buf[off:off+journalEntryBytes])
	}
	descBody := journalDescHeader + int(n)*journalEntryBytes
	binaryLE.PutUint32(buf[descBody:], crc32.Update(0, crcTable, buf[:descBody]))
	if err := d.physWrite(d.logStart, buf); err != nil {
		return err
	}
	// Data blocks, in first-write order.
	for i, lba := range d.txnOrder {
		if err := d.physWrite(d.logStart+1+uint64(i), d.txn[lba]); err != nil {
			return err
		}
	}
	// Commit record: the transaction is durable once this block lands.
	for i := range buf {
		buf[i] = 0
	}
	binaryLE.PutUint32(buf[0:], journalMagicCommit)
	binaryLE.PutUint64(buf[4:], d.seq)
	binaryLE.PutUint32(buf[12:], txnCRC)
	if err := d.physWrite(d.logStart+1+n, buf); err != nil {
		return err
	}
	// Checkpoint: write every block home. A crash in here is recovered
	// by replay (re-applying a committed transaction is idempotent).
	for _, lba := range d.txnOrder {
		if err := d.physWrite(lba, d.txn[lba]); err != nil {
			return err
		}
	}
	d.txn = make(map[uint64][]byte)
	d.txnOrder = d.txnOrder[:0]
	return nil
}

// replay scans the log for a committed transaction and applies it. The
// decoder trusts nothing: every length, magic, sequence and checksum is
// verified, and anything torn or corrupt is counted and discarded. It
// must never panic regardless of log contents (FuzzJournalReplay).
func (d *JournalDevice) replay() error {
	applied, discarded, err := replayJournal(d.under, d.logStart, d.logBlocks)
	if err != nil {
		return err
	}
	if applied > 0 || discarded > 0 {
		// Leave the highest plausible sequence behind so fresh commits
		// do not reuse a live sequence number.
		d.seq = replaySeq(d.under, d.logStart)
	}
	return nil
}

// replaySeq re-reads the descriptor sequence (best effort) after replay.
func replaySeq(under BlockDevice, logStart uint64) uint64 {
	buf := make([]byte, BlockSize)
	if err := under.ReadBlock(logStart, buf); err != nil {
		return 0
	}
	if binaryLE.Uint32(buf[0:]) != journalMagicDesc {
		return 0
	}
	return binaryLE.Uint64(buf[4:])
}

// replayJournal is the standalone decoder: it reads the log region of
// under, validates the transaction record chain, applies fully committed
// transactions to their home blocks, and reports (applied, discarded)
// counts. It is deliberately separable from JournalDevice so the fuzz
// target can drive it over arbitrary images.
func replayJournal(under BlockDevice, logStart, logBlocks uint64) (applied, discarded uint64, err error) {
	if logBlocks < 3 || logStart+logBlocks > under.NumBlocks() {
		return 0, 0, nil
	}
	desc := make([]byte, BlockSize)
	if rerr := under.ReadBlock(logStart, desc); rerr != nil {
		return 0, 0, rerr
	}
	if binaryLE.Uint32(desc[0:]) != journalMagicDesc {
		return 0, 0, nil // empty or unrecognizable log: nothing to do
	}
	seq := binaryLE.Uint64(desc[4:])
	n := uint64(binaryLE.Uint32(desc[12:]))
	if n == 0 || n > uint64(maxTxnBlocks) || n+2 > logBlocks {
		return 0, 1, nil
	}
	descBody := journalDescHeader + int(n)*journalEntryBytes
	if descBody+4 > BlockSize {
		return 0, 1, nil
	}
	if binaryLE.Uint32(desc[descBody:]) != crc32.Update(0, crcTable, desc[:descBody]) {
		return 0, 1, nil
	}
	// Recompute the transaction CRC over descriptor header + entries,
	// verifying each data block's CRC along the way.
	txnCRC := crc32.Update(0, crcTable, desc[:journalDescHeader])
	homes := make([]uint64, 0, n)
	images := make([][]byte, 0, n)
	data := make([]byte, BlockSize)
	for i := uint64(0); i < n; i++ {
		off := journalDescHeader + int(i)*journalEntryBytes
		home := binaryLE.Uint64(desc[off:])
		wantCRC := binaryLE.Uint32(desc[off+8:])
		txnCRC = crc32.Update(txnCRC, crcTable, desc[off:off+journalEntryBytes])
		if home >= logStart {
			return 0, 1, nil // redirect into the log region: corrupt
		}
		if rerr := under.ReadBlock(logStart+1+i, data); rerr != nil {
			return 0, 1, nil
		}
		if crc32.Update(0, crcTable, data) != wantCRC {
			return 0, 1, nil
		}
		homes = append(homes, home)
		img := make([]byte, BlockSize)
		copy(img, data)
		images = append(images, img)
	}
	commit := make([]byte, BlockSize)
	if rerr := under.ReadBlock(logStart+1+n, commit); rerr != nil {
		return 0, 1, nil
	}
	if binaryLE.Uint32(commit[0:]) != journalMagicCommit ||
		binaryLE.Uint64(commit[4:]) != seq ||
		binaryLE.Uint32(commit[12:]) != txnCRC {
		return 0, 1, nil // torn transaction: the commit never landed
	}
	for i, home := range homes {
		if werr := under.WriteBlock(home, images[i]); werr != nil {
			return applied, discarded, werr
		}
	}
	return 1, 0, nil
}
