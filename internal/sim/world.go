package sim

import "ftlhammer/internal/obs"

// World bundles the deterministic simulation substrate one trial runs in: a
// virtual clock plus a seed from which all of the trial's random streams
// derive. Worlds are cheap to create and strictly single-goroutine (like the
// Clock and RNG they wrap), which is exactly what makes trial-level
// parallelism safe: each worker instantiates its own World and never shares
// it.
//
// Randomness is splittable, SplitMix-style: Stream and SplitSeed derive
// child seeds purely from (seed, tag) with a splitmix64 mix, never from
// shared generator state. Trial k therefore sees bit-identical randomness
// whether the trials run on one worker or sixteen, and regardless of the
// order in which streams are requested.
type World struct {
	// Clock is the world's virtual clock. It is owned by the goroutine
	// driving the world; see Clock's concurrency notes.
	Clock *Clock
	// Obs, when non-nil, is the world's metrics registry and event
	// tracer: device models built inside this world register their
	// instruments here. The registry shares the world's single-goroutine
	// ownership contract: each shard world gets its own registry (or
	// none), and the trial engine merges shard registries
	// deterministically in trial order.
	Obs  *obs.Registry
	seed uint64
}

// NewWorld returns a fresh world at time zero with the given root seed.
func NewWorld(seed uint64) *World {
	return &World{Clock: NewClock(), seed: seed}
}

// Seed returns the world's root seed.
func (w *World) Seed() uint64 { return w.seed }

// Stream returns an independent random stream labelled by tag, derived
// purely from (seed, tag). Distinct tags yield decorrelated streams;
// repeated calls with the same tag restart the same stream.
func (w *World) Stream(tag uint64) *RNG {
	return NewRNG(SplitSeed(w.seed, tag))
}

// Now returns the current virtual time.
func (w *World) Now() Time { return w.Clock.Now() }

// SplitSeed mixes a root seed and a shard index into a well-distributed
// child seed (splitmix64 finalizer over the golden-gamma sequence). It is
// the deterministic backbone of the parallel trial engine: child seeds
// depend only on (seed, k), never on execution order.
func SplitSeed(seed, k uint64) uint64 {
	x := seed + (k+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
