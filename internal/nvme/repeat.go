package nvme

import (
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/sim"
)

// Next-event hammering. A hammer loop repeats one read stream for millions
// of cycles, and between events (a victim row's refresh, a weak cell's
// threshold) every repetition changes the device by the same amount.
// RepeatReads runs cycles one by one until their changes repeat, then
// applies whole periods at once up to just before the next event, and runs
// every event cycle and the last cycle read by read. Its result is exactly
// that of the per-command loop; see docs/ARCHITECTURE.md, "Next-event
// hammering".

// repeatMinCycles is the shortest call worth recording: a warm-up cycle,
// two matching cycles, one skipped and one final cycle.
const repeatMinCycles = 5

// repeatRec is the device-level change of one cycle: the clock and the
// FTL, flash and namespace read counters.
type repeatRec struct {
	clock   sim.Duration
	ftl     ftl.ReadCounters
	flash   nand.ReadCounters
	nsReads uint64
}

// repeatLog is the device's half of the cycle history (dram keeps the
// other): the last 8 cycle records and, per period p in {1, 2, 4}, how
// many latest cycles equal the one p before. Allocated on the first
// eligible call and reused.
type repeatLog struct {
	recs [8]repeatRec
	n    int
	run  [5]int
}

// rec returns the record j cycles back (j = 1 is the last cycle).
func (l *repeatLog) rec(j int) *repeatRec { return &l.recs[(l.n-j)&7] }

// add closes a cycle whose change was r.
func (l *repeatLog) add(r repeatRec) {
	*l.rec(0) = r
	l.n++
	for _, p := range [...]int{1, 2, 4} {
		if l.n > p && r == *l.rec(p + 1) {
			l.run[p]++
		} else {
			l.run[p] = 0
		}
	}
}

// repeatable reports whether reads of lbas on ns may take the next-event
// path: nothing on the command path keeps state a period cannot repeat
// (a recorder, the robust policy, a fault injector, a guard, an IOPS cap),
// the FTL, flash and DRAM are repeatable, and every command is well formed
// (the per-command loop reports malformed ones at the exact read).
func (d *Device) repeatable(ns *Namespace, lbas []ftl.LBA, buf []byte) bool {
	if ns == nil || d.rec != nil || d.robustOn() || d.guard != nil ||
		ns.MaxIOPS > 0 || ns.guardCap > 0 {
		return false
	}
	if !d.ftl.Repeatable() || !d.flash.Repeatable() || !d.mem.Repeatable() ||
		d.mem.World().Clock != d.clk || len(buf) != d.ftl.BlockBytes() {
		return false
	}
	for _, lba := range lbas {
		if uint64(lba) >= ns.NumLBAs {
			return false
		}
	}
	return true
}

// RepeatReads issues cycles repetitions of reads of lbas, in order, on ns
// through path, into buf, stopping at the first error. Its result — the
// error, every counter, the flip log, the clock and StateHash — is exactly
// that of the loop
//
//	for c := 0; c < cycles; c++ {
//		for _, lba := range lbas {
//			if _, err := d.Read(ns, lba, buf, path); err != nil {
//				return err
//			}
//		}
//	}
//
// which is what it runs on devices and streams that are not eligible, and
// for calls too short to settle. On an eligible device it runs cycles
// exactly until the last 2p are quiet and repeat with a period of p in
// {1, 2, 4} cycles. It then applies at once as many whole periods as fit
// before the next event, always leaving the last cycle, and returns to
// exact cycles.
func (d *Device) RepeatReads(ns *Namespace, lbas []ftl.LBA, path Path, cycles int, buf []byte) error {
	if cycles < repeatMinCycles || len(lbas) == 0 || !d.repeatable(ns, lbas, buf) {
		for c := 0; c < cycles; c++ {
			if err := d.readCycle(ns, lbas, path, buf); err != nil {
				return err
			}
		}
		return nil
	}
	if d.repeat == nil {
		d.repeat = new(repeatLog)
	}
	l := d.repeat
	l.n, l.run = 0, [5]int{}
	d.mem.StartCycles()
	for c := 0; c < cycles; c++ {
		if p := d.period(); p > 0 && cycles-c > p {
			k := d.mem.Horizon(p, uint64((cycles-c-1)/p))
			if k > 0 {
				d.skip(ns, p, k)
				c += int(k) * p
			}
		}
		before := repeatRec{
			clock:   sim.Duration(d.clk.Now()),
			ftl:     d.ftl.ReadCounters(),
			flash:   d.flash.ReadCounters(),
			nsReads: ns.stats.Reads,
		}
		d.mem.BeginCycle()
		err := d.readCycle(ns, lbas, path, buf)
		d.mem.EndCycle()
		if err != nil {
			return err
		}
		l.add(repeatRec{
			clock:   sim.Duration(d.clk.Now()) - before.clock,
			ftl:     d.ftl.ReadCounters().Sub(before.ftl),
			flash:   d.flash.ReadCounters().Sub(before.flash),
			nsReads: ns.stats.Reads - before.nsReads,
		})
	}
	return nil
}

// readCycle reads lbas once, in order, stopping at the first error.
func (d *Device) readCycle(ns *Namespace, lbas []ftl.LBA, path Path, buf []byte) error {
	for _, lba := range lbas {
		if _, err := d.Read(ns, lba, buf, path); err != nil {
			return err
		}
	}
	return nil
}

// period returns the smallest p in {1, 2, 4} whose last 2p cycles repeat
// in every layer, or 0.
func (d *Device) period() int {
	for _, p := range [...]int{1, 2, 4} {
		if d.repeat.run[p] >= p && d.mem.Repeats(p) {
			return p
		}
	}
	return 0
}

// skip applies k periods of the last p cycles: DRAM advances its own
// state, the FTL and flash add k times their counter growth, and the
// device moves the namespace counters and the clock.
func (d *Device) skip(ns *Namespace, p int, k uint64) {
	d.mem.Skip(p, k)
	for j := 1; j <= p; j++ {
		r := d.repeat.rec(j)
		d.ftl.AddReads(r.ftl, k)
		d.flash.AddReads(r.flash, k)
		ns.stats.Reads += k * r.nsReads
		d.clk.Advance(sim.Duration(k) * r.clock)
	}
}
