package guard

import (
	"math"

	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
)

// The detector's fixed design parameters. Like BlockHammer's, they are
// set at design time, not per deployment.
const (
	// window is the measurement window: one 64 ms refresh window, the
	// physically meaningful horizon.
	window = 64 * sim.Millisecond
	// throttleIOPS is the rate imposed on an offending namespace while
	// the signature persists: far below any hammer threshold, high
	// enough for metadata-ish traffic.
	throttleIOPS = 50_000
	// penalty is how long a namespace stays throttled after its last
	// violation.
	penalty = 4 * window
	// hashCount is k, the number of counters each key probes in every
	// filter. The false-positive bound tightens as occupancy^k, so more
	// hashes buy precision until the extra insertions themselves drive
	// occupancy up.
	hashCount = 4
	// filterCounters is m, the number of 64-bit counters per filter. Two
	// filters exist at any time, so the guard's total tracking state is
	// 2*m*8 bytes — constant regardless of tenant count, row count, or
	// traffic volume.
	filterCounters = 4096
)

// Config tunes the detector.
type Config struct {
	// RowThreshold is the per-row activation count within one window
	// that trips the detector. Rowhammering needs >= HCfirst (tens of
	// thousands even on the weakest modules); legitimate workloads
	// never concentrate that many lookups on one row. Default 8192.
	RowThreshold uint64
	// Enforce applies throttling; when false the guard only detects.
	Enforce bool
}

// DefaultConfig returns detection+enforcement with conservative margins.
func DefaultConfig() Config {
	return Config{Enforce: true}
}

// nsState tracks one namespace's verdict state. Unlike the filters this
// is O(namespaces), not O(rows): it holds only the throttle deadline
// and the violation count, a few words per tenant.
type nsState struct {
	throttledTo sim.Time
	violations  uint64
}

// Stats are the guard's cumulative filter-level counters.
type Stats struct {
	// Inserts counts observed activations (one per Observe call).
	Inserts uint64
	// Blacklists counts threshold crossings (row blacklist events).
	Blacklists uint64
	// Rotations counts half-window epoch turns (filter clears).
	Rotations uint64
}

// Guard is the detector. It tracks row heat in a BlockHammer-style pair
// of rotating counting Bloom filters instead of exact per-row state:
// every activation inserts into both filters, estimates are read from
// the older filter (which holds between half a window and a full window
// of history), and every half window the older filter is cleared and
// becomes the younger. Memory is 2*filterCounters counters, constant no
// matter how many tenants or rows the device serves; the price is a
// bounded false-positive rate (see FPBound). Estimates never
// underestimate, so a real aggressor is never missed.
//
// Guard is not safe for concurrent use (the device is single-threaded).
type Guard struct {
	cfg        Config
	filters    [2]*countingBloom
	young      int      // index of the filter cleared most recently
	epochStart sim.Time // start of the current half-window epoch
	ns         map[int]*nsState
	stats      Stats
	reg        *obs.Registry
}

// New builds a guard.
func New(cfg Config) *Guard {
	if cfg.RowThreshold == 0 {
		cfg.RowThreshold = 8192
	}
	g := &Guard{cfg: cfg, ns: make(map[int]*nsState)}
	g.filters[0] = newCountingBloom(filterCounters, hashCount)
	g.filters[1] = newCountingBloom(filterCounters, hashCount)
	return g
}

// SetObs attaches a registry so blacklist decisions emit trace events.
// Safe to skip; a nil registry disables emission.
func (g *Guard) SetObs(r *obs.Registry) { g.reg = r }

// tenantKey folds the namespace ID into the hot-spot key so the shared
// filters keep per-tenant attribution: two tenants activating the same
// DRAM row heat independent counter sets, exactly as the old per-
// namespace exact maps did.
func tenantKey(nsID int, key uint64) uint64 {
	return key ^ mix64(uint64(nsID)+0x6e735f6b6579) // "ns_key"
}

// advance turns filter epochs. Every half window the older filter is
// cleared and the roles swap, so the query filter always holds between
// W/2 and W of history — heat does not survive a refresh horizon, just
// like physical disturbance does not.
func (g *Guard) advance(now sim.Time) {
	const half = window / 2
	for now.Sub(g.epochStart) >= half {
		if now.Sub(g.epochStart) >= window {
			// Idle gap longer than a full window: both filters hold
			// only stale heat. Clear both and re-anchor the epoch.
			g.filters[0].clear()
			g.filters[1].clear()
			g.stats.Rotations += 2
			g.epochStart = now
			return
		}
		older := 1 - g.young
		g.filters[older].clear()
		g.young = older
		g.stats.Rotations++
		g.epochStart = g.epochStart.Add(half)
	}
}

// Observe records one lookup: the namespace, an opaque hot-spot key (the
// device passes the DRAM bank/row its L2P lookup activated — firmware
// knows its own address mapping) and the current time. It returns the
// IOPS cap to apply to this namespace right now (0 = unthrottled).
func (g *Guard) Observe(nsID int, key uint64, now sim.Time) float64 {
	st, ok := g.ns[nsID]
	if !ok {
		st = &nsState{}
		g.ns[nsID] = st
	}
	g.advance(now)
	g.stats.Inserts++
	k := tenantKey(nsID, key)
	g.filters[g.young].add(k)
	if est := g.filters[1-g.young].add(k); est >= g.cfg.RowThreshold {
		st.violations++
		st.throttledTo = now.Add(penalty)
		g.stats.Blacklists++
		// Subtract one threshold's worth of heat so a persisting attack
		// re-trips once per threshold crossing rather than on every
		// access (the counting-filter analogue of the old counter
		// reset).
		g.filters[0].subtract(k, g.cfg.RowThreshold)
		g.filters[1].subtract(k, g.cfg.RowThreshold)
		g.reg.Emit(uint64(now), EvBlacklist, int64(nsID), int64(key), int64(st.violations))
	}
	if g.cfg.Enforce && now < st.throttledTo {
		return throttleIOPS
	}
	return 0
}

// Violations reports how many times a namespace crossed the hammer
// signature (0 for unknown namespaces).
func (g *Guard) Violations(nsID int) uint64 {
	if st, ok := g.ns[nsID]; ok {
		return st.violations
	}
	return 0
}

// Stats returns the cumulative filter-level counters.
func (g *Guard) Stats() Stats { return g.stats }

// FootprintBytes is the guard's total tracking-state size: both filters'
// counter arrays. It is fixed at construction and independent of how
// many rows or tenants have been observed — the property that lets the
// guard hold at fleet scale.
func (g *Guard) FootprintBytes() int {
	return (len(g.filters[0].counters) + len(g.filters[1].counters)) * 8
}

// Occupancy is the nonzero-counter fraction of the query (older)
// filter, the input to the false-positive bound.
func (g *Guard) Occupancy() float64 {
	return g.filters[1-g.young].occupancy()
}

// FPBound is the current probability that a never-inserted key's
// estimate is nonzero: occupancy^k, the standard Bloom false-positive
// bound evaluated at the live occupancy. A *throttling* false positive
// additionally requires the colliding counters to have absorbed
// RowThreshold heat, so this is a loose upper bound on wrongly
// throttled rows.
func (g *Guard) FPBound() float64 {
	return math.Pow(g.Occupancy(), hashCount)
}
