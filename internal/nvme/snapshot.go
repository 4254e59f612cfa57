package nvme

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"ftlhammer/internal/ecc"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
	"ftlhammer/internal/snapshot"
)

// Snapshot event kinds (registered below, documented in docs/METRICS.md
// and docs/REPLAY.md).
const (
	// EvSnapshotSave is one completed device checkpoint: bytes written.
	EvSnapshotSave = "snapshot.save"
	// EvSnapshotLoad is one completed device restore: bytes read, the
	// restored virtual clock.
	EvSnapshotLoad = "snapshot.load"
)

func init() {
	obs.RegisterEventKind(EvSnapshotSave, "bytes", "", "")
	obs.RegisterEventKind(EvSnapshotLoad, "bytes", "clock_ns", "")
}

// ConfigMismatchError reports an attempt to restore a snapshot into a
// device whose configuration digest differs from the one the snapshot
// was taken under. Restoring across configurations would silently
// desynchronize RNG streams, geometry-derived indices, and timings.
type ConfigMismatchError struct {
	Got, Want uint64
}

func (e *ConfigMismatchError) Error() string {
	return fmt.Sprintf("nvme: snapshot config digest %#x does not match device %#x", e.Want, e.Got)
}

// ConfigDigest hashes everything that shapes the device's behavior but is
// not mutable state: DRAM/FTL configuration, NAND geometry and latency,
// command costs, the robustness policy, the fault plan, the guard policy,
// the namespace layout, the ECC codeword layout, and the world seed. Two
// devices with equal digests started from the same snapshot replay
// identically.
func (d *Device) ConfigDigest() uint64 {
	var b bytes.Buffer
	fmt.Fprintf(&b, "dram=%+v|", d.mem.Config())
	fmt.Fprintf(&b, "ftl=%+v|", d.ftl.Config())
	fmt.Fprintf(&b, "nand=%+v/%+v|", d.flash.Geometry(), d.flash.Latency())
	fmt.Fprintf(&b, "costs=%+v|pipelining=%d|rob=%+v|", d.costs, d.pipelining, d.rob)
	fmt.Fprintf(&b, "faults=%#x|guard=%s|", d.inj.ConfigDigest(), d.guard.ConfigString())
	fmt.Fprintf(&b, "ecc=%#x|seed=%d|", ecc.LayoutDigest(), d.world.Seed())
	for _, ns := range d.namespaces {
		fmt.Fprintf(&b, "ns=%d/%d/%d/%v|", ns.ID, ns.StartLBA, ns.NumLBAs, ns.MaxIOPS)
	}
	return snapshot.Hash(b.Bytes())
}

// checkpoint encodes the full device state without emitting events, so
// StateHash stays free of observable side effects.
func (d *Device) checkpoint() *snapshot.Writer {
	w := snapshot.NewWriter()
	meta := w.Section("meta")
	meta.U64("config_digest", d.ConfigDigest())
	meta.U64("seed", d.world.Seed())
	meta.U64("clock", uint64(d.clk.Now()))
	meta.U64("ecc_layout", ecc.LayoutDigest())

	d.mem.SaveTo(w)
	d.flash.SaveTo(w)
	d.ftl.SaveTo(w)

	s := w.Section("nvme")
	s.Bool("read_only", d.readOnly)
	s.U64("media_errs", d.mediaErrs)
	s.U64("clean_streak", d.cleanStreak)
	rs := d.rstats
	s.U64s("rstats", []uint64{
		rs.Retries, rs.Timeouts, rs.DroppedCompletions, rs.MediaErrors,
		rs.TimedOutCmds, rs.AbortedCmds, rs.MediaFailedCmds,
		rs.ReadOnlyEntries, rs.ReadOnlyExits, rs.ReadOnlyRejects,
	})
	if d.retryRNG != nil {
		st := d.retryRNG.State()
		s.U64s("retry_rng", st[:])
	} else {
		s.U64s("retry_rng", nil)
	}
	retryKeys := make([]int, 0, len(d.retryDist))
	for k := range d.retryDist {
		retryKeys = append(retryKeys, k)
	}
	sort.Ints(retryKeys)
	retryDist := make([]uint64, 0, 2*len(retryKeys))
	for _, k := range retryKeys {
		retryDist = append(retryDist, uint64(k), d.retryDist[k])
	}
	s.U64s("retry_dist", retryDist)
	nextFree := make([]uint64, len(d.namespaces))
	guardCap := make([]uint64, len(d.namespaces))
	var nsStats []uint64
	for i, ns := range d.namespaces {
		nextFree[i] = uint64(ns.nextFree)
		guardCap[i] = math.Float64bits(ns.guardCap)
		nsStats = append(nsStats, ns.stats.Reads, ns.stats.Writes, ns.stats.Trims, ns.stats.Throttled)
	}
	s.U64s("ns_next_free", nextFree)
	s.U64s("ns_guard_cap", guardCap)
	s.U64s("ns_stats", nsStats)

	if d.inj != nil {
		d.inj.SaveTo(w)
	}
	if d.guard != nil {
		d.guard.SaveTo(w)
	}
	return w
}

// Checkpoint writes the complete device state — every layer, the virtual
// clock, every RNG stream position — as one snapshot stream. The device
// continues unperturbed; checkpointing is a pure read of simulation
// state (the snapshot.save trace event and counters are observability,
// not simulation).
func (d *Device) Checkpoint(w io.Writer) error {
	sw := d.checkpoint()
	n, err := sw.WriteTo(w)
	if err != nil {
		return err
	}
	d.obs.CounterAdd("snapshot_saves_total", 1)
	d.obs.CounterAdd("snapshot_bytes_total", uint64(n))
	d.obs.Emit(uint64(d.clk.Now()), EvSnapshotSave, n, 0, 0)
	return nil
}

// StateHash returns the FNV-1a hash of the device's checkpoint stream
// (snapshot.Hash of its bytes, which are streamed into the hash, not
// assembled): a 64-bit fingerprint of the entire simulation state. Equal
// hashes mean byte-identical checkpoints. It emits no events and touches
// no counters, so hashing is safe to interleave with metric collection.
func (d *Device) StateHash() uint64 {
	h := fnv.New64a()
	_, _ = d.checkpoint().WriteTo(h) // a hash's Write never fails
	return h.Sum64()
}

// Restore replaces the device's entire state with a snapshot previously
// written by Checkpoint on an identically configured device. On a config
// digest mismatch it returns *ConfigMismatchError before touching
// anything; on malformed content a typed snapshot error, after which the
// device is possibly half-restored and must be discarded.
func (d *Device) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		return err
	}
	meta := snap.Section("meta")
	digest := meta.U64("config_digest")
	eccLayout := meta.U64("ecc_layout")
	clock := meta.U64("clock")
	seed := meta.U64("seed")
	if err := meta.Err(); err != nil {
		return err
	}
	if want := d.ConfigDigest(); digest != want {
		return &ConfigMismatchError{Got: want, Want: digest}
	}
	if eccLayout != ecc.LayoutDigest() {
		return snapshot.Errf("meta", "ecc_layout", "codeword layout %#x, want %#x",
			eccLayout, ecc.LayoutDigest())
	}
	if seed != d.world.Seed() {
		return snapshot.Errf("meta", "seed", "world seed %d, want %d", seed, d.world.Seed())
	}

	s := snap.Section("nvme")
	readOnly := s.Bool("read_only")
	mediaErrs := s.U64("media_errs")
	cleanStreak := s.U64("clean_streak")
	rstats := s.U64s("rstats")
	retryRNG := s.U64s("retry_rng")
	retryDist := s.U64s("retry_dist")
	nextFree := s.U64s("ns_next_free")
	guardCap := s.U64s("ns_guard_cap")
	nsStats := s.U64s("ns_stats")
	if s.Err() == nil {
		switch {
		case len(rstats) != 10:
			s.Reject("rstats", "want 10 counters, got %d", len(rstats))
		case len(retryRNG) != 0 && len(retryRNG) != 4:
			s.Reject("retry_rng", "want 0 or 4 state words, got %d", len(retryRNG))
		case (len(retryRNG) == 4) != (d.retryRNG != nil):
			s.Reject("retry_rng", "snapshot retry stream presence %v but device configured %v",
				len(retryRNG) == 4, d.retryRNG != nil)
		case len(retryDist)%2 != 0:
			s.Reject("retry_dist", "want (retries, count) pairs, got %d words", len(retryDist))
		case len(nextFree) != len(d.namespaces):
			s.Reject("ns_next_free", "want %d namespaces, got %d", len(d.namespaces), len(nextFree))
		case len(guardCap) != len(d.namespaces):
			s.Reject("ns_guard_cap", "want %d namespaces, got %d", len(d.namespaces), len(guardCap))
		case len(nsStats) != len(d.namespaces)*4:
			s.Reject("ns_stats", "want %d counters, got %d", len(d.namespaces)*4, len(nsStats))
		}
	}
	if err := s.Err(); err != nil {
		return err
	}
	if d.inj != nil && !snap.Has("faults") {
		return snapshot.Errf("faults", "", "device has a fault injector but snapshot has no faults section")
	}
	if d.guard != nil && !snap.Has("guard") {
		return snapshot.Errf("guard", "", "device has a guard but snapshot has no guard section")
	}

	if err := d.mem.LoadFrom(snap); err != nil {
		return err
	}
	if err := d.flash.LoadFrom(snap); err != nil {
		return err
	}
	if err := d.ftl.LoadFrom(snap); err != nil {
		return err
	}
	if d.inj != nil {
		if err := d.inj.LoadFrom(snap); err != nil {
			return err
		}
	}
	if d.guard != nil {
		if err := d.guard.LoadFrom(snap); err != nil {
			return err
		}
	}
	d.readOnly = readOnly
	d.mediaErrs = mediaErrs
	d.cleanStreak = cleanStreak
	d.rstats = RobustStats{
		Retries: rstats[0], Timeouts: rstats[1], DroppedCompletions: rstats[2],
		MediaErrors: rstats[3], TimedOutCmds: rstats[4], AbortedCmds: rstats[5],
		MediaFailedCmds: rstats[6], ReadOnlyEntries: rstats[7],
		ReadOnlyExits: rstats[8], ReadOnlyRejects: rstats[9],
	}
	if d.retryRNG != nil {
		d.retryRNG.SetState([4]uint64{retryRNG[0], retryRNG[1], retryRNG[2], retryRNG[3]})
	}
	d.retryDist = nil
	for i := 0; i < len(retryDist); i += 2 {
		k, n := retryDist[i], retryDist[i+1]
		if k < 1 || k > uint64(d.rob.MaxRetries) {
			return snapshot.Errf("nvme", "retry_dist",
				"retry count %d outside 1..%d", k, d.rob.MaxRetries)
		}
		if d.retryDist == nil {
			d.retryDist = make(map[int]uint64, len(retryDist)/2)
		}
		d.retryDist[int(k)] = n
	}
	for i, ns := range d.namespaces {
		ns.nextFree = sim.Time(nextFree[i])
		ns.guardCap = math.Float64frombits(guardCap[i])
		ns.stats = NSStats{
			Reads: nsStats[i*4], Writes: nsStats[i*4+1],
			Trims: nsStats[i*4+2], Throttled: nsStats[i*4+3],
		}
	}
	d.clk.Restore(sim.Time(clock))
	d.obs.CounterAdd("snapshot_loads_total", 1)
	d.obs.Emit(uint64(d.clk.Now()), EvSnapshotLoad, int64(len(data)), int64(clock), 0)
	return nil
}
