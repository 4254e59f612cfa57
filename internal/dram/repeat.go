package dram

import "ftlhammer/internal/sim"

// Next-event support. A device that repeats one access stream (a hammer
// loop) changes the module in a way that is periodic between events: each
// period adds the same activations and disturbance and moves the open rows
// and the tRC/tFAW state by the same amount of time. The state changes
// that break the period are the events: a row's staggered refresh resets
// it, its disturbance reaches thrFloor while it is unsampled, or it
// reaches the lowest threshold of a weak cell not yet attempted in this
// generation. The caller brackets each repetition of its stream with
// BeginCycle/EndCycle; the module records what the cycle changed, reports
// whether the last cycles repeat with a period p (Repeats), how many whole
// periods fit before the next event (Horizon), and applies them in time
// proportional to the rows one cycle touches (Skip).

// Cycle log bounds. The log keeps the last cycleHistory cycles (enough to
// compare two periods of 4 cycles); a cycle that activates more rows,
// banks or ranks than fit is recorded as not repeatable, and its stream
// simply runs access by access.
const (
	cycleHistory  = 8
	cycleMaxRows  = 40
	cycleMaxBanks = 16
	cycleMaxRanks = 4
	cycleRowSlots = 128 // open-addressed row index, > 2 * cycleMaxRows
)

// cycleRow is the disturbance one cycle added to one victim row.
type cycleRow struct {
	key    uint64       // flat bank << 32 | row
	weight uint64       // disturbance added, in disturbScale units
	last   sim.Duration // offset of the row's last touch from the cycle start
}

// cycleBank is one bank the cycle activated, with its state at the cycle
// end. Banks a cycle only hits keep their row and busy time, so they are
// not recorded.
type cycleBank struct {
	bank, open int32
	acts       uint64 // activations during the cycle
	busy       int64  // bankBusyUntil relative to the cycle end (tRC on)
}

// cycleRank is the tFAW ring of one rank the cycle activated, relative to
// the cycle end and in slot order (the order the snapshot stores).
type cycleRank struct {
	rank int64
	ring [4]int64
}

// cycleRec is everything one cycle changed. Two cycles with equal records
// (==) made the same accesses and left the same relative state.
type cycleRec struct {
	dur                   sim.Duration
	reads, acts, hits     uint64
	nRows, nBanks, nRanks int
	quiet                 bool // no event, no overflow, no leftover stall
	rows                  [cycleMaxRows]cycleRow
	banks                 [cycleMaxBanks]cycleBank
	ranks                 [cycleMaxRanks]cycleRank
}

// cycleLog is the module's cycle recorder: fixed-size, allocated on first
// use and reused, so its memory does not depend on geometry or on how long
// the stream runs.
type cycleLog struct {
	recs [cycleHistory]cycleRec
	n    int    // cycles recorded since StartCycles
	run  [5]int // run[p]: latest cycles in a row equal to the one p before
	// The open cycle.
	start             sim.Time
	reads, acts, hits uint64
	events            uint64
	overflow, stalled bool
	idx               [cycleRowSlots]uint8 // row index + 1, 0 = empty
}

// rec returns the record of the cycle j cycles before the open one
// (j = 1 is the last completed cycle).
func (l *cycleLog) rec(j int) *cycleRec { return &l.recs[(l.n-j)&(cycleHistory-1)] }

// Repeatable reports whether the module's response to a repeated access
// stream can be advanced a period at a time: no TRR or PARA (whose
// samplers and draws depend on absolute time and RNG state) and no ECC
// (whose corrections are state changes of their own).
func (m *Module) Repeatable() bool {
	return !m.cfg.TRR.Enabled && m.cfg.PARA == 0 && !m.cfg.ECC
}

// StartCycles clears the cycle history before a new repeated stream.
func (m *Module) StartCycles() {
	if m.cycles == nil {
		m.cycles = new(cycleLog)
	}
	m.cycles.n = 0
	m.cycles.run = [5]int{}
}

// BeginCycle starts recording one repetition of the stream at the current
// time. Every access until EndCycle belongs to it.
func (m *Module) BeginCycle() {
	l := m.cycles
	*l.rec(0) = cycleRec{}
	l.idx = [cycleRowSlots]uint8{}
	l.start = m.clk.Now()
	l.reads, l.acts, l.hits = m.stats.Reads, m.stats.Activations, m.stats.RowHits
	l.events = m.events
	l.overflow = false
	l.stalled = m.pendingStall != 0
	m.cyc = l
}

// activate records one activation of (bankIdx, row) at time now: the
// bank's activation count and the disturbance its neighbours receive,
// exactly as disturb applies it.
func (l *cycleLog) activate(m *Module, bankIdx, row int, now sim.Time) {
	r := l.rec(0)
	i := 0
	for i < r.nBanks && int(r.banks[i].bank) != bankIdx {
		i++
	}
	switch {
	case i < r.nBanks:
		r.banks[i].acts++
	case i == cycleMaxBanks:
		l.overflow = true
	default:
		r.banks[i] = cycleBank{bank: int32(bankIdx), acts: 1}
		r.nBanks++
	}
	if m.neverFlips {
		return
	}
	off := now.Sub(l.start)
	l.touch(m, r, bankIdx, row-1, disturbScale, off)
	l.touch(m, r, bankIdx, row+1, disturbScale, off)
	if w := m.cfg.Blast2Weight; w > 0 {
		l.touch(m, r, bankIdx, row-2, w, off)
		l.touch(m, r, bankIdx, row+2, w, off)
	}
}

// touch adds weight to the cycle's entry for one victim row.
func (l *cycleLog) touch(m *Module, r *cycleRec, bankIdx, row int, weight uint64, off sim.Duration) {
	if row < 0 || row >= m.cfg.Geometry.RowsPerBank {
		return
	}
	key := uint64(bankIdx)<<32 | uint64(row)
	s := (key * 0x9e3779b97f4a7c15) >> (64 - 7) // 7 = log2(cycleRowSlots)
	for ; l.idx[s] != 0; s = (s + 1) & (cycleRowSlots - 1) {
		if e := &r.rows[l.idx[s]-1]; e.key == key {
			e.weight += weight
			e.last = off
			return
		}
	}
	if r.nRows == cycleMaxRows {
		l.overflow = true
		return
	}
	r.rows[r.nRows] = cycleRow{key: key, weight: weight, last: off}
	r.nRows++
	l.idx[s] = uint8(r.nRows)
}

// EndCycle closes the open cycle: it records the cycle's totals and the
// end state of every bank and rank it activated, and extends each
// period's run of repeating cycles.
func (m *Module) EndCycle() {
	l := m.cyc
	if l == nil {
		return
	}
	m.cyc = nil
	now := m.clk.Now()
	r := l.rec(0)
	r.dur = now.Sub(l.start)
	r.reads = m.stats.Reads - l.reads
	r.acts = m.stats.Activations - l.acts
	r.hits = m.stats.RowHits - l.hits
	r.quiet = !l.overflow && !l.stalled && m.events == l.events && m.pendingStall == 0
	t := m.cfg.Timing
	for i := range r.banks[:r.nBanks] {
		b := &r.banks[i]
		b.open = int32(m.banks[b.bank].openRow)
		if t.TRC > 0 {
			b.busy = int64(m.bankBusyUntil[b.bank]) - int64(now)
		}
		if t.TFAW == 0 {
			continue
		}
		rank := int64(m.mapper.flatRank(int(b.bank)))
		j := 0
		for j < r.nRanks && r.ranks[j].rank != rank {
			j++
		}
		if j < r.nRanks {
			continue
		}
		if j == cycleMaxRanks {
			r.quiet = false
			continue
		}
		rk := &r.ranks[j]
		rk.rank = rank
		for s, v := range m.rankActs[rank] {
			if v == 0 {
				// An empty slot imposes nothing, whatever the clock
				// says; it is not a translatable time.
				r.quiet = false
			}
			rk.ring[s] = int64(v) - int64(now)
		}
		r.nRanks++
	}
	l.n++
	for _, p := range [...]int{1, 2, 4} {
		if l.n > p && r.quiet && *r == *l.rec(p + 1) {
			l.run[p]++
		} else {
			l.run[p] = 0
		}
	}
}

// Repeats reports whether the last 2p cycles were quiet and each of the
// last p equals the one p cycles before it: the stream has settled into a
// period of p cycles.
func (m *Module) Repeats(p int) bool {
	return m.cycles != nil && m.cycles.run[p] >= p
}

// periodRows calls fn once per victim row of the last p cycles, with the
// row's total disturbance over the period and the offset of its last
// touch from the period start.
func (l *cycleLog) periodRows(p int, fn func(bankIdx, row int, weight uint64, last sim.Duration)) {
	var base sim.Duration
	for j := p; j >= 1; j-- {
		r := l.rec(j)
	rows:
		for _, e := range r.rows[:r.nRows] {
			// A row seen in an earlier cycle of the period was
			// already reported with every later cycle's share.
			for jj := p; jj > j; jj-- {
				prev := l.rec(jj)
				for _, pe := range prev.rows[:prev.nRows] {
					if pe.key == e.key {
						continue rows
					}
				}
			}
			weight, last, b := e.weight, base+e.last, base+r.dur
			for jj := j - 1; jj >= 1; jj-- {
				next := l.rec(jj)
				for _, ne := range next.rows[:next.nRows] {
					if ne.key == e.key {
						weight += ne.weight
						last = b + ne.last
						break
					}
				}
				b += next.dur
			}
			fn(int(e.key>>32), int(uint32(e.key)), weight, last)
		}
		base += r.dur
	}
}

// period returns the duration of the last p cycles.
func (l *cycleLog) period(p int) sim.Duration {
	var d sim.Duration
	for j := 1; j <= p; j++ {
		d += l.rec(j).dur
	}
	return d
}

// Horizon returns how many whole periods of the last p cycles (at most
// limit) can follow without an event: every row the period disturbs stays
// inside its current refresh epoch and below its next threshold — thrFloor
// while unsampled, else the lowest threshold of a weak cell not attempted
// in this generation. It is meaningful only when Repeats(p).
func (m *Module) Horizon(p int, limit uint64) uint64 {
	l := m.cycles
	per := l.period(p)
	now := uint64(m.clk.Now())
	k := limit
	l.periodRows(p, func(bankIdx, row int, weight uint64, last sim.Duration) {
		rs := m.banks[bankIdx].row(row)
		// Touches of period q (1-based) fall at now + (q-1)*per + offset;
		// the row's epoch ends at its next staggered boundary, which
		// ensureEpoch memoized when the period disturbed it.
		if lastAt := now + uint64(last); lastAt >= rs.epochEnd {
			k = 0
		} else if per > 0 {
			k = min(k, (rs.epochEnd-1-lastAt)/uint64(per)+1)
		}
		next := m.thrFloor
		if rs.sampled {
			next = ^uint64(0)
			for _, wc := range rs.weak {
				if wc.attemptedGen != rs.gen && wc.threshold < next {
					next = wc.threshold
				}
			}
		}
		if rs.disturb >= next {
			k = 0
		} else {
			k = min(k, (next-1-rs.disturb)/weight)
		}
	})
	return k
}

// Skip applies k more periods of the last p cycles, as if they had run
// access by access: the counters, per-bank activations and per-row
// disturbance grow by k times the period's share, and the tRC/tFAW times
// of the banks and ranks the period activated move k periods forward.
// Banks the period only hit keep their busy time. The caller advances the
// clock. Valid only for k <= Horizon(p, ...).
func (m *Module) Skip(p int, k uint64) {
	l := m.cycles
	shift := sim.Duration(k) * l.period(p)
	l.periodRows(p, func(bankIdx, row int, weight uint64, _ sim.Duration) {
		m.banks[bankIdx].row(row).disturb += k * weight
	})
	t := m.cfg.Timing
	for j := p; j >= 1; j-- {
		r := l.rec(j)
		m.stats.Reads += k * r.reads
		m.stats.Activations += k * r.acts
		m.stats.RowHits += k * r.hits
		for _, b := range r.banks[:r.nBanks] {
			m.bankActs[b.bank] += k * b.acts
			if t.TRC > 0 && !seenBank(l, p, j, b.bank) {
				m.bankBusyUntil[b.bank] = m.bankBusyUntil[b.bank].Add(shift)
			}
		}
		for _, rk := range r.ranks[:r.nRanks] {
			if !seenRank(l, p, j, rk.rank) {
				ra := &m.rankActs[rk.rank]
				for s := range ra {
					ra[s] = ra[s].Add(shift)
				}
			}
		}
	}
}

// seenBank reports whether a cycle before the j-th-last of the period
// already activated bankIdx.
func seenBank(l *cycleLog, p, j int, bankIdx int32) bool {
	for jj := p; jj > j; jj-- {
		r := l.rec(jj)
		for _, b := range r.banks[:r.nBanks] {
			if b.bank == bankIdx {
				return true
			}
		}
	}
	return false
}

// seenRank is seenBank for the tFAW rings.
func seenRank(l *cycleLog, p, j int, rank int64) bool {
	for jj := p; jj > j; jj-- {
		r := l.rec(jj)
		for _, rk := range r.ranks[:r.nRanks] {
			if rk.rank == rank {
				return true
			}
		}
	}
	return false
}
