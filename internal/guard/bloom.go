package guard

// countingBloom is one counting Bloom filter: m saturating 64-bit
// counters addressed by k double-hashed probes per key. Insertion
// increments all k counters; the estimated count for a key is the
// minimum over its k counters (the classic count-min reading of a
// counting Bloom filter — an overestimate, never an underestimate, so
// a real aggressor is never missed and the only error mode is a
// bounded false-positive rate; see docs/DEFENSES.md for the bound).
type countingBloom struct {
	counters []uint64
	hashes   int
	// occupied counts counters that are currently nonzero, maintained
	// incrementally so occupancy queries are O(1).
	occupied int
}

func newCountingBloom(counters, hashes int) *countingBloom {
	return &countingBloom{counters: make([]uint64, counters), hashes: hashes}
}

// mix64 is the SplitMix64 finalizer: a cheap, statistically strong
// 64-bit mixer. Two independent mixes of the key drive double hashing
// (probe_i = h1 + i*h2 mod m), which Kirsch-Mitzenmacher showed
// preserves Bloom-filter false-positive behavior with only two hash
// computations regardless of k.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// probes derives the key's two double-hashing components. h2 is forced
// odd so that, with power-of-two filter sizes, successive probes cycle
// through distinct slots.
func (f *countingBloom) probes(key uint64) (h1, h2 uint64) {
	h1 = mix64(key)
	h2 = mix64(key^0x9e3779b97f4a7c15) | 1
	return h1, h2
}

// add increments the key's k counters and returns the new min-of-k
// estimate for the key.
func (f *countingBloom) add(key uint64) uint64 {
	h1, h2 := f.probes(key)
	m := uint64(len(f.counters))
	est := ^uint64(0)
	for i := 0; i < f.hashes; i++ {
		idx := (h1 + uint64(i)*h2) % m
		if f.counters[idx] == 0 {
			f.occupied++
		}
		f.counters[idx]++
		if f.counters[idx] < est {
			est = f.counters[idx]
		}
	}
	return est
}

// subtract removes up to n from each of the key's k counters (used
// after a threshold crossing so a persisting attack re-trips once per
// RowThreshold activations rather than on every subsequent access).
func (f *countingBloom) subtract(key, n uint64) {
	h1, h2 := f.probes(key)
	m := uint64(len(f.counters))
	for i := 0; i < f.hashes; i++ {
		idx := (h1 + uint64(i)*h2) % m
		was := f.counters[idx]
		if f.counters[idx] <= n {
			f.counters[idx] = 0
		} else {
			f.counters[idx] -= n
		}
		if was != 0 && f.counters[idx] == 0 {
			f.occupied--
		}
	}
}

// clear zeroes every counter (an epoch rotation).
func (f *countingBloom) clear() {
	for i := range f.counters {
		f.counters[i] = 0
	}
	f.occupied = 0
}

// occupancy is the fraction of nonzero counters, the quantity the
// false-positive bound occupancy^k is computed from.
func (f *countingBloom) occupancy() float64 {
	if len(f.counters) == 0 {
		return 0
	}
	return float64(f.occupied) / float64(len(f.counters))
}
