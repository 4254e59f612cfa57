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
