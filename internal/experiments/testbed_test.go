package experiments

import (
	"testing"

	"ftlhammer/internal/cloud"
)

// TestTestbedConfigsPinned pins the devices the experiments' testbed
// helpers build: their nvme config digest (the whole DRAM, FTL, flash,
// robustness, fault, guard, seed and namespace configuration) and the
// state hash once the victim filesystem is formatted and filled. Both
// values predate the testbed's assembly through fleet.DeviceSpec, so a
// match shows that path builds the same devices, bit for bit.
func TestTestbedConfigsPinned(t *testing.T) {
	cases := []struct {
		name          string
		cfg           func() cloud.Config
		config, state uint64
		perNS         uint64
	}{
		{"quick", func() cloud.Config { return quickTestbedConfig(0x42) }, 0x20e62d7d76ba8e76, 0x63f9f77050b55851, 61440},
		{"paper", func() cloud.Config { return paperTestbedConfig(0xF2) }, 0xaa28491f81097106, 0xd4915e44f829c928, 122880},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "paper" && testing.Short() {
				t.Skip("fills a 1 GiB device; skipped with -short")
			}
			tb, err := cloud.NewTestbed(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if got := tb.Device.ConfigDigest(); got != tc.config {
				t.Errorf("config digest %#016x, want %#016x", got, tc.config)
			}
			if got := tb.Device.StateHash(); got != tc.state {
				t.Errorf("state hash after setup %#016x, want %#016x", got, tc.state)
			}
			if tb.AttackerNS.NumLBAs != tc.perNS || tb.VictimNS.NumLBAs != tc.perNS {
				t.Errorf("partitions %d + %d LBAs, want %d each", tb.AttackerNS.NumLBAs, tb.VictimNS.NumLBAs, tc.perNS)
			}
		})
	}
}

// TestMitigationProbeDevicesPinned pins the device of each §5 table row:
// the probe testbed under the row's cloud.Config.Mitigate spec, by its
// nvme config digest and its state hash after setup. The values were
// taken when each row carried its own config mutation, so a match shows
// the shared catalogue builds the same devices.
func TestMitigationProbeDevicesPinned(t *testing.T) {
	want := map[string][2]uint64{
		"none (baseline)":                      {0xaed7154d2c6b38f7, 0xfc2ac585d3eaf541},
		"ECC (SEC-DED per 64-bit word)":        {0xc091b6598d7f33b6, 0x5391a7d98ba630a5},
		"TRR (sampler=1)":                      {0xf11834fb661b458d, 0xf5b1108709cf51e9},
		"TRR vs synchronized decoys":           {0xf11834fb661b458d, 0xf5b1108709cf51e9},
		"PARA p=0.02":                          {0xbec103f736ff4b1d, 0xd9989a1b2043cec2},
		"2x refresh rate (32 ms window)":       {0x22a9ef7615b671b8, 0x3df1e6afbe4d46fe},
		"FTL CPU cache for L2P":                {0x7e626426288344bd, 0xcf65039a717ab715},
		"FTL cache vs eviction-aware reads":    {0x7e626426288344bd, 0xcf65039a717ab715},
		"I/O rate limit (100K IOPS/ns)":        {0x01fdadfa77059e91, 0xcbcfd07f7ce51bdd},
		"hammer guard (ours: detect+throttle)": {0xe24c882a6787087b, 0x0dcce72b28ff24a8},
	}
	probes := mitigationProbes()
	if len(probes) != len(want) {
		t.Fatalf("%d probe rows, want %d", len(probes), len(want))
	}
	for _, p := range probes {
		cfg := probeTestbedConfig(0x50)
		if err := cfg.Mitigate(p.spec); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		tb, err := cloud.NewTestbed(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		w, ok := want[p.name]
		if !ok {
			t.Fatalf("unpinned row %q", p.name)
		}
		if got := tb.Device.ConfigDigest(); got != w[0] {
			t.Errorf("%s: config digest %#016x, want %#016x", p.name, got, w[0])
		}
		if got := tb.Device.StateHash(); got != w[1] {
			t.Errorf("%s: state hash after setup %#016x, want %#016x", p.name, got, w[1])
		}
	}
}
