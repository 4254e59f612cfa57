// Package guard is this reproduction's answer to the paper's concluding
// open question — "whether there exists some principled way to ensure
// end-to-end security isolation" — scoped down to the FTL-rowhammer
// vector: a firmware-side anomaly detector with *targeted* throttling,
// built to hold at fleet scale.
//
// The paper notes that globally "rate-limiting user IOs below the
// rowhammering access rate ... is at odds with the overall performance
// goals of NVMe" (§5). The guard instead exploits the attack's
// signature: rowhammering must concentrate an enormous number of
// lookups on a tiny number of L2P cache lines within one refresh
// window, something no legitimate workload needs (a legitimate hot
// block is served from any host-side cache; the device sees spatially
// spread traffic). The guard throttles only the offending namespace,
// and only while the signature persists.
//
// Row heat is tracked BlockHammer-style (Yağlıkçı et al., HPCA'21) in a
// pair of rotating counting Bloom filters rather than exact per-row
// counters. Every activation inserts its (namespace, bank/row) key into
// both filters via k double-hashed probes; the estimate is the minimum
// of the key's k counters in the *older* filter, which always holds
// between half a window and a full window of history. Every half window
// the older filter is cleared and the roles swap, so heat ages out on
// the same horizon a DRAM refresh erases physical disturbance. The
// estimate never undercounts — a real aggressor cannot slip through —
// and the only error mode is a false-positive rate bounded by
// occupancy^k (exported live as FPBound). Total tracking state is
// 2 × 4096 counters × 8 bytes, fixed at design time: a device serving
// four tenants and a device serving four thousand spend identical guard
// memory, which the old exact map (one uint64 pair per hot row per
// namespace) could not promise.
//
// The same machinery doubles as a detector: Violations counts how often
// a namespace's traffic crossed the hammer signature, each crossing
// emits a guard.blacklist trace event, and filter occupancy /
// false-positive / rotation counters are exported through the device's
// obs registry (see docs/DEFENSES.md and docs/METRICS.md).
package guard
