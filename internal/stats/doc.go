// Package stats provides Sample, the float64 sample the experiments and
// CLIs use to summarize runs: per-shard samples merge in shard order, and
// the summary is the count, the maximum and nearest-rank percentiles.
package stats
