// Package perf holds the canonical micro-benchmark bodies for the
// simulated command hot path and the benchmark device they run on. The
// per-package Benchmark* functions (internal/nvme, internal/dram,
// internal/transport) delegate here so that `go test -bench` and
// cmd/perfgate measure exactly the same code and agree on names. Every
// simulated experiment in this repo is bounded by these paths, so their
// ns/op and allocs/op are the numbers a perf regression shows up in
// first.
package perf
