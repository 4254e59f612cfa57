package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via splitmix64). Each subsystem gets its own RNG so
// that, for a fixed seed, device behaviour (weak-cell placement, flip
// thresholds, workload choices) is exactly reproducible regardless of how
// other subsystems consume randomness.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed. Any seed,
// including zero, yields a well-mixed state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to fill the state; guarantees a non-zero state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n(0)")
	}
	// Lemire's nearly-divisionless method with rejection for exact
	// uniformity.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair pseudo-random boolean.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// LogNormalish returns a cheap heavy-tailed positive multiplier with mean
// roughly e^(sigma^2/2), implemented as exp of a triangular-ish sum of
// uniforms scaled by sigma. It is used for sampling per-cell flip-threshold
// spread, where we need determinism and a right tail, not a specific
// textbook distribution.
func (r *RNG) LogNormalish(sigma float64) float64 {
	// Sum of 4 uniforms in [-0.5, 0.5) approximates a normal with
	// sd ~ 1/sqrt(3).
	u := (r.Float64() + r.Float64() + r.Float64() + r.Float64()) - 2.0
	z := u * 1.732 // rescale to unit-ish variance
	x := sigma * z
	// Clamp to avoid overflow in pathological configurations.
	if x > 20 {
		x = 20
	} else if x < -20 {
		x = -20
	}
	return math.Exp(x)
}

// State returns the generator's current internal state, for inclusion in
// snapshots. Restoring it with SetState resumes the exact stream.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState replaces the generator's internal state with one previously
// obtained from State. The all-zero state is a xoshiro fixed point that
// seeding can never produce; it is normalized to NewRNG(0) so a corrupt
// snapshot cannot wedge the generator.
func (r *RNG) SetState(s [4]uint64) {
	if s == ([4]uint64{}) {
		s = NewRNG(0).s
	}
	r.s = s
}
