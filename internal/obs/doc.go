// Package obs is the observability substrate of the simulator: a
// metrics registry (counters, gauges, fixed-bucket histograms) plus a
// bounded ring-buffer event tracer, designed so that the paper's
// device-internal quantities — activation rates, row-buffer locality, L2P
// touch patterns, IOPS — are measurable without perturbing either the
// simulation's determinism or its hot paths.
//
// Three properties shape the design:
//
//   - Zero allocation, near-zero cost on the hot path. Instruments are
//     registered once (allocating then) and incremented through handles.
//     Every handle method and Registry.Emit is nil-receiver-safe, so the
//     disabled path — a nil registry everywhere — costs one predictable
//     branch per call site.
//
//   - Sharded like the simulation. A Registry belongs to one sim.World
//     and inherits its single-goroutine ownership; the parallel trial
//     engine gives each trial world its own registry and merges them in
//     trial order. Counter addition, gauge maximum and bucket-wise
//     histogram addition are order-independent per name, so merged
//     metrics are byte-identical at any worker count.
//     Nondeterministic measurements (wall-clock) are registered as
//     volatile and excluded from deterministic snapshots.
//
//   - Bounded everywhere. The tracer is a fixed-capacity ring keeping
//     the newest events and counting drops; histograms have fixed bucket
//     layouts; nothing grows with simulation length.
//
// Exports: human table, JSON, Prometheus text exposition, and JSONL event
// dumps, plus an http.Handler for live inspection (cmd/repro -listen).
// The metric and event vocabulary is documented in docs/METRICS.md.
package obs
