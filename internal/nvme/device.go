package nvme

import (
	"context"
	"errors"
	"fmt"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/faults"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/guard"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// Path identifies how commands reach the device.
type Path int

const (
	// PathDirect is unmediated access (SRIOV VF or kernel-bypass
	// driver): minimal per-command overhead. The attacker VM in Figure
	// 2(b) has this.
	PathDirect Path = iota
	// PathHostFS is the ordinary route through a guest filesystem and
	// virtualized block stack: syscalls, FS metadata lookups, vmexits.
	PathHostFS
)

func (p Path) String() string {
	if p == PathHostFS {
		return "host-fs"
	}
	return "direct"
}

// Costs parameterizes the service-time model.
type Costs struct {
	// SubmissionDirect is the per-command overhead on PathDirect.
	SubmissionDirect sim.Duration
	// SubmissionHostFS is the per-command overhead on PathHostFS.
	SubmissionHostFS sim.Duration
	// Firmware is fixed firmware processing time per command.
	Firmware sim.Duration
	// DRAMAccess is charged per DRAM line access the command caused.
	DRAMAccess sim.Duration
	// FlashPipelining divides raw flash latencies to model channel/die
	// parallelism under deep queues; 0 means "use the array's die
	// count".
	FlashPipelining int
}

// DefaultCosts returns timings calibrated so a direct-path read of a
// trimmed LBA (amplification x5) costs ~0.7 µs — the ~1.4 M IOPS /
// ~7 M aggressor-activations-per-second operating point of the paper's
// testbed — while the host-FS path is an order of magnitude slower.
// DRAMAccess covers CAS/transfer only; row-cycle serialization (tRC/tFAW)
// is charged separately as back-pressure from the DRAM model.
func DefaultCosts() Costs {
	return Costs{
		SubmissionDirect: 150 * sim.Nanosecond,
		SubmissionHostFS: 2 * sim.Microsecond,
		Firmware:         50 * sim.Nanosecond,
		DRAMAccess:       15 * sim.Nanosecond,
	}
}

// Namespace is one partition of the shared device, with its own logical
// address space (§4.1: "a block address is only valid within its
// partition").
type Namespace struct {
	ID       int
	StartLBA ftl.LBA
	NumLBAs  uint64
	// MaxIOPS, when non-zero, throttles the namespace (the §5
	// rate-limiting mitigation).
	MaxIOPS float64

	nextFree sim.Time // token-bucket next admission time
	// guardCap is the transient cap imposed by an attached hammer guard
	// (0 = none).
	guardCap float64
	stats    NSStats
}

// NSStats counts per-namespace activity.
type NSStats struct {
	Reads, Writes, Trims uint64
	Throttled            uint64 // commands that waited on the rate limit
}

// Config assembles a device.
type Config struct {
	Costs Costs
	// Robust enables the retry/timeout/degradation policy (see Robust);
	// the zero value keeps the idealized always-succeeds front end.
	Robust Robust
	// Faults, when non-nil, attaches a fault injector: KindLatency and
	// KindDropCompletion rules (region-scoped by global LBA) fire on
	// this device's command path. NAND and ECC kinds fire in the layers
	// the same injector is threaded into (nand.WithFaults, ftl.SetFaults).
	Faults *faults.Injector
}

// Device is the NVMe-like controller. Not safe for concurrent use; one
// device lives in one simulation World.
type Device struct {
	ftl        *ftl.FTL
	flash      *nand.Array
	mem        *dram.Module
	world      *sim.World
	clk        *sim.Clock
	costs      Costs
	pipelining int
	namespaces []*Namespace
	guard      *guard.Guard
	// obs is the world's registry (nil disables; all uses are nil-safe).
	obs *obs.Registry
	// maxBatch is the largest DoBatch batch serviced
	// (nvme_queue_batch_max).
	maxBatch int
	// rec, when set, observes every command entering doContext (the
	// record half of record-replay; see SetRecorder).
	rec func(CommandRecord)

	// Robustness state (see robust.go). All zero when robustOn() is
	// false, in which case commands take the exact pre-faults path.
	rob      Robust
	inj      *faults.Injector
	retryRNG *sim.RNG
	// retryDist counts completed commands by how many retries each took
	// (simulation state, not a live metric handle: it survives checkpoint/
	// restore and is projected into nvme_retries_per_command at Flush).
	retryDist   map[int]uint64
	readOnly    bool
	mediaErrs   uint64
	cleanStreak uint64
	rstats      RobustStats

	// repeat is RepeatReads' cycle history (repeat.go), nil until the
	// first eligible call.
	repeat *repeatLog
}

// New builds a device over an FTL and its backing parts, inside world w.
func New(cfg Config, f *ftl.FTL, mem *dram.Module, flash *nand.Array, w *sim.World) *Device {
	if w == nil || w.Clock == nil {
		panic("nvme: nil world")
	}
	costs := cfg.Costs
	if costs == (Costs{}) {
		costs = DefaultCosts()
	}
	pip := costs.FlashPipelining
	if pip <= 0 {
		g := flash.Geometry()
		pip = g.Channels * g.DiesPerChan
	}
	d := &Device{
		ftl:        f,
		flash:      flash,
		mem:        mem,
		world:      w,
		clk:        w.Clock,
		costs:      costs,
		pipelining: pip,
		obs:        w.Obs,
		rob:        cfg.Robust,
		inj:        cfg.Faults,
	}
	if d.robustOn() {
		d.retryRNG = w.Stream(retryStreamTag)
	}
	if d.obs != nil {
		d.registerObs(d.obs)
	}
	return d
}

// retryStreamTag labels the World stream feeding backoff jitter, keeping
// it decorrelated from every other subsystem's randomness.
const retryStreamTag = 0x4e764d65

// Clock returns the device's virtual clock.
func (d *Device) Clock() *sim.Clock { return d.clk }

// World returns the simulation world the device runs in.
func (d *Device) World() *sim.World { return d.world }

// FTL exposes the translation layer (the simulator's white-box view).
func (d *Device) FTL() *ftl.FTL { return d.ftl }

// DRAM exposes the device DRAM (white-box view for analysis/tests).
func (d *Device) DRAM() *dram.Module { return d.mem }

// Flash exposes the device's NAND array (white-box view for analysis/tests).
func (d *Device) Flash() *nand.Array { return d.flash }

// BlockBytes returns the logical block size.
func (d *Device) BlockBytes() int { return d.ftl.BlockBytes() }

// AddNamespace carves a namespace out of the device's logical space.
// Namespaces must not overlap.
func (d *Device) AddNamespace(numLBAs uint64, maxIOPS float64) (*Namespace, error) {
	var start ftl.LBA
	for _, ns := range d.namespaces {
		start = ns.StartLBA + ftl.LBA(ns.NumLBAs)
	}
	if uint64(start)+numLBAs > d.ftl.NumLBAs() {
		return nil, fmt.Errorf("nvme: namespace of %d LBAs exceeds device capacity (%d used, %d total)",
			numLBAs, start, d.ftl.NumLBAs())
	}
	ns := &Namespace{
		ID:       len(d.namespaces) + 1,
		StartLBA: start,
		NumLBAs:  numLBAs,
		MaxIOPS:  maxIOPS,
	}
	d.namespaces = append(d.namespaces, ns)
	return ns, nil
}

// Namespaces returns the configured namespaces.
func (d *Device) Namespaces() []*Namespace { return d.namespaces }

// NamespaceByID resolves a namespace ID (1-based, as reported by Identify
// and used on the wire by the transport layer).
func (d *Device) NamespaceByID(id int) (*Namespace, bool) {
	for _, ns := range d.namespaces {
		if ns.ID == id {
			return ns, true
		}
	}
	return nil, false
}

// Stats returns a copy of a namespace's counters.
func (ns *Namespace) Stats() NSStats { return ns.stats }

// ErrOutOfRange reports an LBA beyond the namespace.
var ErrOutOfRange = errors.New("nvme: LBA out of namespace range")

// Local converts a device-global LBA to one relative to ns, reporting
// whether ns holds it.
func (ns *Namespace) Local(g ftl.LBA) (ftl.LBA, bool) {
	if g < ns.StartLBA || uint64(g-ns.StartLBA) >= ns.NumLBAs {
		return 0, false
	}
	return g - ns.StartLBA, true
}

// global translates a namespace-relative LBA.
func (d *Device) global(ns *Namespace, lba ftl.LBA) (ftl.LBA, error) {
	if uint64(lba) >= ns.NumLBAs {
		return 0, fmt.Errorf("%w: %d >= %d (nsid %d)", ErrOutOfRange, lba, ns.NumLBAs, ns.ID)
	}
	return ns.StartLBA + lba, nil
}

// AttachGuard installs a firmware-side hammer detector: every command's
// L2P lookup is reported to it, and namespaces showing the hammer
// signature get individually throttled (see internal/guard). The guard
// inherits the device's trace registry so blacklist decisions appear in
// the event stream.
func (d *Device) AttachGuard(g *guard.Guard) {
	d.guard = g
	if g != nil {
		g.SetObs(d.obs)
	}
}

// Guard returns the attached detector, if any.
func (d *Device) Guard() *guard.Guard { return d.guard }

// observeGuard reports a command's L2P activations to the guard and
// records the throttle verdict for subsequent admissions. The hot-spot
// key is the DRAM bank/row the L2P lookup activated: the firmware knows
// its own controller mapping, so it aggregates at exactly the
// granularity rowhammering must concentrate on. Every activation is
// reported (a firmware-amplified command hammers HammersPerIO times and
// must count that many times); row-buffer hits cannot hammer and are
// never reported, which keeps legitimately hot (but buffer-resident)
// lines from accumulating toward the signature.
func (d *Device) observeGuard(ns *Namespace, global ftl.LBA, acts uint64) {
	if d.guard == nil || acts == 0 {
		return
	}
	var key uint64
	if addr, err := d.ftl.EntryAddr(global); err == nil {
		loc := d.mem.Mapper().Map(addr)
		key = uint64(d.mem.Config().Geometry.FlatBank(loc))<<32 | uint64(loc.Row)
	} else {
		// Hashed layout: fall back to line granularity.
		key = uint64(global) / 16
	}
	prev := ns.guardCap
	now := d.clk.Now()
	for i := uint64(0); i < acts; i++ {
		ns.guardCap = d.guard.Observe(ns.ID, key, now)
	}
	if ns.guardCap != prev {
		d.obs.Emit(uint64(now), EvGuardThrottle,
			int64(ns.ID), int64(ns.guardCap), int64(prev))
	}
}

// admit applies the namespace rate limiter (static cap and any guard-
// imposed cap), stalling the clock until the command may start, and
// charges the submission cost for the path.
func (d *Device) admit(ns *Namespace, path Path) {
	cap := ns.MaxIOPS
	if ns.guardCap > 0 && (cap == 0 || ns.guardCap < cap) {
		cap = ns.guardCap
	}
	if cap > 0 {
		if now := d.clk.Now(); now < ns.nextFree {
			ns.stats.Throttled++
			d.clk.AdvanceTo(ns.nextFree)
		}
		ns.nextFree = d.clk.Now().Add(sim.Interval(cap))
	}
	if path == PathHostFS {
		d.clk.Advance(d.costs.SubmissionHostFS)
	} else {
		d.clk.Advance(d.costs.SubmissionDirect)
	}
}

// chargeBackend advances the clock for firmware, DRAM and flash work done
// since the command started, given the DRAM access count and flash busy
// time read then.
func (d *Device) chargeBackend(accessesBefore uint64, busyBefore sim.Duration) {
	d.clk.Advance(d.costs.Firmware)
	// Every DRAM line touch increments exactly one of Activations or
	// RowHits (data reads/writes included), so their delta is the
	// command's DRAM access count.
	d.clk.Advance(d.costs.DRAMAccess * sim.Duration(d.mem.Accesses()-accessesBefore))
	// DRAM command-rate back-pressure (tRC/tFAW): when the workload
	// demands activations faster than the chips allow, the difference
	// stalls the firmware.
	if stall := d.mem.TakeStall(); stall > 0 {
		d.clk.Advance(stall)
	}
	d.clk.Advance((d.flash.BusyTime() - busyBefore) / sim.Duration(d.pipelining))
}

// serveOnce runs one backend service attempt: counter reads, FTL op,
// backend time charge, guard report. It is the unit the robustness layer
// re-issues. Taking the opcode and buffer as plain parameters (rather
// than an op closure) keeps the per-command fast path allocation-free.
func (d *Device) serveOnce(ns *Namespace, g ftl.LBA, op Opcode, buf []byte) (mapped bool, err error) {
	accesses, acts, busy := d.mem.Accesses(), d.mem.Activations(), d.flash.BusyTime()
	switch op {
	case OpRead:
		mapped, err = d.ftl.ReadLBA(g, buf)
	case OpWrite:
		err = d.ftl.WriteLBA(g, buf)
	default:
		err = d.ftl.Trim(g)
	}
	acts = d.mem.Activations() - acts
	d.chargeBackend(accesses, busy)
	d.observeGuard(ns, g, acts)
	return mapped, err
}

// ErrNoNamespace reports a Command submitted without a target namespace.
var ErrNoNamespace = errors.New("nvme: command has no namespace")

// Do executes one command synchronously and returns its completion. It is
// the single typed entrypoint shared by the network transport and
// in-process callers; DoBatch, Read, Write and Trim are thin wrappers over
// it.
//
// The returned error reports submission-level rejections only (nil
// namespace, invalid opcode) — cases where the command never reached the
// device. Everything the device itself decides (out-of-range LBA,
// read-only rejection, media failure, timeout) lands in Completion.Err,
// exactly as it would arrive in a completion queue entry.
func (d *Device) Do(cmd Command) (Completion, error) {
	return d.doContext(context.Background(), cmd)
}

// doContext is Do with cancellation: ctx is consulted between service
// attempts of the robustness retry loop, so a caller abandoning a command
// (a disconnected transport session) stops burning retries instead of
// waiting for the deadline budget to exhaust. A nil ctx never cancels.
// Without the robustness path, commands are a single synchronous attempt
// and ctx is not checked.
func (d *Device) doContext(ctx context.Context, cmd Command) (Completion, error) {
	c := Completion{Tag: cmd.Tag}
	ns := cmd.NS
	if ns == nil {
		return c, ErrNoNamespace
	}
	switch cmd.Op {
	case OpRead, OpWrite, OpTrim:
	default:
		return c, fmt.Errorf("nvme: invalid opcode %d", cmd.Op)
	}
	if d.rec != nil {
		cr := CommandRecord{
			Tick:   uint64(d.clk.Now()),
			Origin: cmd.Origin,
			NSID:   ns.ID,
			Op:     cmd.Op,
			Path:   cmd.Path,
			LBA:    cmd.LBA,
		}
		if cmd.Op == OpWrite {
			cr.Data = append([]byte(nil), cmd.Buf...)
		}
		d.rec(cr)
	}
	g, err := d.global(ns, cmd.LBA)
	if err != nil {
		c.Err = err
		return c, nil
	}
	if cmd.Op != OpRead {
		if err := d.rejectIfReadOnly(cmd.Op); err != nil {
			c.Err = err
			return c, nil
		}
	}
	d.admit(ns, cmd.Path)
	if d.robustOn() {
		c.Mapped, c.Err = d.robustly(ctx, ns, g, cmd.Op, cmd.Buf)
	} else {
		c.Mapped, c.Err = d.serveOnce(ns, g, cmd.Op, cmd.Buf)
	}
	switch cmd.Op {
	case OpRead:
		ns.stats.Reads++
	case OpWrite:
		ns.stats.Writes++
	default:
		ns.stats.Trims++
	}
	return c, nil
}

// DoBatch executes cmds in order, appending one completion per command to
// comps and returning the extended slice: the doorbell of the NVMe-style
// submission/completion queues the paper's workload uses (§3.1). comps
// may be nil or a recycled slice with spare capacity — when it has room
// for len(cmds) more entries the call performs no allocations, which is
// what lets the transport server run a whole wire batch without garbage.
// Submission-level rejections surface as the command's Completion.Err.
// ctx is consulted between retry attempts of the robustness path (see
// robustly); nil never cancels.
//
// Completion-path invariants (audited for the fault-injection layer; the
// historical model silently assumed every command eventually succeeds):
//
//  1. Every submitted command yields exactly one Completion, in
//     submission order — even under injected faults. Lost completions
//     are modeled *inside* the device's robustness layer (the host-side
//     deadline detects the drop and aborts/requeues), so by the time
//     DoBatch returns, no command is outstanding.
//  2. A completion's Err is nil only if the command's data/mapping
//     effect is real. Failure is never silent: commands that exhaust the
//     retry budget complete with a typed error — ErrTimeout, ErrAborted,
//     ErrMediaFailure, or ErrReadOnly — and non-transient device errors
//     (ftl.CorruptMappingError, dram.ECCError, out-of-range) pass
//     through verbatim, matchable with errors.Is/errors.As.
//  3. Virtual time advances monotonically across the batch; retry
//     backoff and deadline waits are charged to the clock before the
//     next command is serviced, so completion timestamps (and all
//     derived metrics) are deterministic at any -parallel worker count.
func (d *Device) DoBatch(ctx context.Context, cmds []Command, comps []Completion) []Completion {
	if n := len(cmds); n > d.maxBatch {
		d.maxBatch = n
	}
	for i := range cmds {
		c, err := d.doContext(ctx, cmds[i])
		if err != nil {
			c.Err = err
		}
		comps = append(comps, c)
	}
	return comps
}

// Read services one block read. The returned mapped flag reports whether
// flash was touched (false for trimmed/unwritten LBAs — the fast path).
func (d *Device) Read(ns *Namespace, lba ftl.LBA, buf []byte, path Path) (mapped bool, err error) {
	c, err := d.Do(Command{Op: OpRead, NS: ns, Path: path, LBA: lba, Buf: buf})
	if err != nil {
		return false, err
	}
	return c.Mapped, c.Err
}

// Write services one block write.
func (d *Device) Write(ns *Namespace, lba ftl.LBA, data []byte, path Path) error {
	c, err := d.Do(Command{Op: OpWrite, NS: ns, Path: path, LBA: lba, Buf: data})
	if err != nil {
		return err
	}
	return c.Err
}

// Trim deallocates one block (NVMe Dataset Management / Deallocate).
func (d *Device) Trim(ns *Namespace, lba ftl.LBA, path Path) error {
	c, err := d.Do(Command{Op: OpTrim, NS: ns, Path: path, LBA: lba})
	if err != nil {
		return err
	}
	return c.Err
}

// Identify describes the controller, in the spirit of the NVMe Identify
// command.
type Identify struct {
	Model      string
	Capacity   uint64 // bytes
	BlockBytes int
	Namespaces int
	L2PKind    string
}

// Identify returns controller information.
func (d *Device) Identify() Identify {
	kind := "linear"
	if d.ftl.Config().Hashed {
		kind = "hashed"
	}
	return Identify{
		Model:      "ftlhammer emulated NVMe SSD",
		Capacity:   d.ftl.NumLBAs() * uint64(d.ftl.BlockBytes()),
		BlockBytes: d.ftl.BlockBytes(),
		Namespaces: len(d.namespaces),
		L2PKind:    kind,
	}
}

// L2POwner returns an ownership classifier over the L2P DRAM region: given
// a DRAM physical address it returns the ID of the namespace whose
// translation entry lives there, or -1. Only meaningful for the linear
// layout — with the hashed layout the mapping is key-dependent, which is
// exactly why hashing is a mitigation.
func (d *Device) L2POwner() (func(addr uint64) int, error) {
	if d.ftl.Config().Hashed {
		return nil, errors.New("nvme: L2P ownership is randomized by the hashed layout")
	}
	region := d.ftl.L2PRegion()
	// Snapshot namespace ranges.
	type span struct {
		id         int
		start, end uint64 // entry index range
	}
	var spans []span
	for _, ns := range d.namespaces {
		spans = append(spans, span{ns.ID, uint64(ns.StartLBA), uint64(ns.StartLBA) + ns.NumLBAs})
	}
	return func(addr uint64) int {
		if !region.Contains(addr) {
			return -1
		}
		entry := (addr - region.Base) / ftl.EntryBytes
		for _, s := range spans {
			if entry >= s.start && entry < s.end {
				return s.id
			}
		}
		return -1
	}, nil
}

// EntryAddrOf returns the DRAM address of a namespace-relative LBA's L2P
// entry (linear layout only) — the attacker's offline layout knowledge.
func (d *Device) EntryAddrOf(ns *Namespace, lba ftl.LBA) (uint64, error) {
	g, err := d.global(ns, lba)
	if err != nil {
		return 0, err
	}
	return d.ftl.EntryAddr(g)
}
