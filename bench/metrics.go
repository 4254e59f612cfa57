package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json; TestSpecMatchesCode checks that they do.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the untraced metrics. Every one applies to every workload,
// because each run reports the full list:
//   - setup_s: host seconds before a timed unit can start: the median
//     start-up of the benchmark binary plus the median time to build the
//     system under test (device, or fleet plus prefill; for experiments,
//     their registry look-up).
//   - wall_s: median host seconds of one timed unit.
//   - cmds_per_s: simulated NVMe commands completed per host second,
//     the median over units.
//   - max_rss_mb: peak resident set (VmHWM) of the workload's child process.
//   - alloc_mb: median Go heap bytes allocated during one timed unit.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cmds_per_s", "1/s"},
	{"max_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// experimentIDs is the registry order of the reproduction's experiments;
// the traced ledger reports each one's wall time.
var experimentIDs = []string{
	"table1", "figure1", "figure2", "figure3", "escalation", "calib", "ttl",
	"prob", "mitig", "ablations", "faults", "blast", "defenses", "fuzz", "victims",
}

// perLayer are the traced metrics, reported by every traced run (a layer a
// workload never reaches reads 0). Counts come from the layers' own public
// read-outs, *_s spans from benchmark-side spans around calls into a
// layer, and *_ns from the layer-isolation phase.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{"experiments." + id + ".wall_s", "s"})
	}
	return append(defs,
		metricDef{"attack.allocate_s", "s"},
		metricDef{"attack.arm_s", "s"},
		metricDef{"attack.hammer_s", "s"},
		metricDef{"attack.check_s", "s"},
		metricDef{"attack.iter_ns", "ns"},
		metricDef{"attack.residual_ns", "ns"},
		metricDef{"nvme.commands", "count"},
		metricDef{"nvme.host_ns_per_cmd", "ns"},
		metricDef{"nvme.read_unmapped_ns", "ns"},
		metricDef{"nvme.dobatch_ns_per_cmd", "ns"},
		metricDef{"nvme.residual_ns", "ns"},
		metricDef{"ftl.l2p_lookups", "count"},
		metricDef{"ftl.reads_unmapped", "count"},
		metricDef{"ftl.gc_runs", "count"},
		metricDef{"ftl.gc_pages_moved", "count"},
		metricDef{"ftl.write_amp", "ratio"},
		metricDef{"ftl.read_unmapped_ns", "ns"},
		metricDef{"ftl.read_mapped_ns", "ns"},
		metricDef{"ftl.write_ns", "ns"},
		metricDef{"dram.activations", "count"},
		metricDef{"dram.row_hit_ratio", "ratio"},
		metricDef{"dram.flips", "count"},
		metricDef{"dram.read_entry_ns", "ns"},
		metricDef{"dram.activate_ns", "ns"},
		metricDef{"nand.read_ns", "ns"},
		metricDef{"nand.program_ns", "ns"},
		metricDef{"nand.erase_ns", "ns"},
		metricDef{"guard.inserts", "count"},
		metricDef{"guard.observe_ns", "ns"},
		metricDef{"ext4.create_ns", "ns"},
		metricDef{"ext4.lookup_ns", "ns"},
		metricDef{"ext4.block_reads_per_lookup", "count"},
		metricDef{"transport.batches", "count"},
		metricDef{"transport.ring_ns", "ns"},
		metricDef{"transport.ns_per_cmd", "ns"},
		metricDef{"transport.rtt_p50_ms", "ms"},
		metricDef{"transport.rtt_p99_ms", "ms"},
		metricDef{"transport.rtt_samples", "count"},
		metricDef{"fleet.sessions_routed", "count"},
		metricDef{"fleet.splice_ns", "ns"},
		metricDef{"trace_overhead_frac", "ratio"},
	)
}()

// servedExtras are served-only untraced numbers: the batch round trip by
// the percentile rule. Every end-to-end metric is reported on every
// workload, so these are printed and recorded for compare, not bounded.
var servedExtras = []metricDef{
	{"rtt_p50_ms", "ms"},
	{"rtt_p99_ms", "ms"},
	{"rtt_samples", "count"},
}

// value is one reported number in the result line's format.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// specPath is BENCHMARK.json, relative to the repository root the
// benchmark runs from.
const specPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json the benchmark reads: the run
// length, the workloads, the metric lists and their regression bounds.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
