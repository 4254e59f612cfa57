// Package attack implements the paper's contribution: FTL rowhammering —
// an unprivileged attacker that uses an SSD strictly as intended (reads,
// writes, trims) and still flips bits in the device's internal DRAM,
// corrupting logical-to-physical translations to leak or hijack other
// tenants' data. The attack is factored into composable stages.
//
// The pipeline has three pluggable roles, mirroring how SWAGE-style
// frameworks factor DRAM attacks:
//
//   - Allocator places attacker state over the FTL (ContiguousAllocator,
//     the paper's linear-L2P layout) and derives hammerable Bindings:
//     per-side LBA groups whose L2P lookups activate each aggressor row,
//     the victim entries in between, and an optional decoy row.
//   - Hammerer drives a declarative Pattern against a Binding: the
//     classic double-/single-sided and one-location workloads of §3.1
//     plus TRRespass/ZenHammer-style non-uniform shapes — per-slot
//     firing frequencies and phases, extra sides, decoy reads, and
//     REF-synchronized decoys.
//   - Victim observes corruption: the raw-LBA canary victim snapshots
//     L2P translations directly (internal/victims holds the software
//     victims). The §4.2 ext4 indirect-block victim is Campaign's
//     Sprayer, with its spray, scan and dump stages.
//
// Pipeline wires the three together. Campaign is the paper's §4.2
// exploit loop (analyze, spray both partitions with polyglot blocks,
// hammer, scan, dump) and Template its online rowhammerability test;
// both drive DeviceHammerer directly.
//
// On top sits Fuzzer: a seeded, deterministic search over pattern
// space whose fitness is "bit flips induced while the firmware guard
// and the in-DRAM mitigation stay silent". Winning patterns are
// reduced with the budgeted replay shrinker into checked-in golden
// attacks (see docs/ATTACKS.md and the fuzz experiment row).
package attack
