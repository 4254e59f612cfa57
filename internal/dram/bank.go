package dram

import (
	"ftlhammer/internal/sim"
)

// disturbScale is the fixed-point scale for disturbance accounting: an
// adjacent-row activation contributes one full unit (16/16); distance-two
// rows can contribute fractional units (half-double style coupling).
const disturbScale = 16

// weakCell is one rowhammer-susceptible cell in a row.
type weakCell struct {
	// bit is the cell's bit offset within the row (0..RowBytes*8).
	bit uint32
	// threshold is the in-window disturbance (scaled by disturbScale)
	// at which the cell flips.
	threshold uint64
	// leaksToOne is true for anti-cells (stored 0 decays to 1); false
	// for true-cells (stored 1 decays to 0).
	leaksToOne bool
	// attemptedGen records the row generation at which a flip was last
	// attempted, so sustained over-threshold hammering does not re-touch
	// the store every access.
	attemptedGen uint64
}

// rowState is the lazily materialized per-row disturbance bookkeeping.
type rowState struct {
	// epoch is the refresh epoch at which disturb was last reset.
	epoch uint64
	// epochEnd is the time epoch ends, once ensureEpoch has seen the
	// row (0 until then); Horizon reads it too.
	epochEnd uint64
	// disturb is the accumulated neighbour-activation pressure this
	// epoch, scaled by disturbScale.
	disturb uint64
	// gen increments when the row is refreshed or written, re-arming
	// flip attempts.
	gen uint64
	// weak lists the row's susceptible cells (often empty).
	weak []weakCell
	// minThr is the smallest threshold among weak cells (^0 when the row
	// has none); the disturb hot path skips the cell scan below it.
	minThr uint64
	// sampled records whether weak has been materialized.
	sampled bool
}

// rowCacheEnt is one slot of the bank's direct-mapped row-state cache.
type rowCacheEnt struct {
	row int32
	rs  *rowState
}

// rowCacheBits sizes the per-bank row-state cache (1<<rowCacheBits
// slots). A hammer pattern disturbs a handful of rows around each
// aggressor, and an FTL's aggressor rows sit in distant groups of one
// bank; a multiplicative hash of the row keeps both resident.
const rowCacheBits = 6

// bankState tracks one bank's row buffer and its mitigation state.
type bankState struct {
	// openRow is the row currently held in the row buffer, or -1.
	openRow int
	// rows holds lazily created per-row state.
	rows map[int]*rowState
	// rowCache short-circuits the rows map for recently disturbed rows
	// (the hot hammering set).
	rowCache [1 << rowCacheBits]rowCacheEnt
	// trrSampler holds the rows sampled since the last refresh command,
	// with activation counts (the in-DRAM TRR mitigation's view).
	trrSampler map[int]uint64
	// trrTick is the REF interval index at which TRR last acted.
	trrTick uint64
}

func newBankState() *bankState {
	return &bankState{openRow: -1, rows: make(map[int]*rowState)}
}

// row returns (creating if needed) the state for a physical row.
func (b *bankState) row(r int) *rowState {
	e := &b.rowCache[(uint32(r)*0x9e3779b9)>>(32-rowCacheBits)]
	if e.rs != nil && int(e.row) == r {
		return e.rs
	}
	rs, ok := b.rows[r]
	if !ok {
		rs = &rowState{}
		b.rows[r] = rs
	}
	e.row, e.rs = int32(r), rs
	return rs
}

// poisson draws a Poisson-distributed count with the given mean; the means
// used here are small (weak cells per row), so inversion by sequential
// search is exact and fast.
func poisson(rng *sim.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Knuth's algorithm: multiply uniforms until the product drops below
	// e^-mean.
	l := expNeg(mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 64 { // mean is small; cap defensively
			return k
		}
	}
}

// expNeg computes e^-x for x >= 0 with a range-reduced series; accuracy
// requirements here are modest and the result is deterministic everywhere.
func expNeg(x float64) float64 {
	// e^-x = 1/e^x with e^x via the standard library would be fine; use a
	// simple range-reduced series for determinism across platforms.
	if x > 50 {
		return 0
	}
	// Range-reduce: e^-x = (e^-x/2^k)^(2^k)
	k := 0
	for x > 0.5 {
		x /= 2
		k++
	}
	// Taylor series for e^-x, |x| <= 0.5: converges quickly.
	term := 1.0
	sum := 1.0
	for i := 1; i < 12; i++ {
		term *= -x / float64(i)
		sum += term
	}
	for ; k > 0; k-- {
		sum *= sum
	}
	return sum
}
