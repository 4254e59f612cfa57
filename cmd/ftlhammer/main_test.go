package main

import (
	"strings"
	"testing"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
)

// TestDefaultTestbedPinned pins the device ftlhammer builds at its default
// flags (-profile weak -amplify 1 -seed 0xBEEF) by its nvme config
// digest, taken before the testbed was assembled through
// fleet.DeviceSpec.
func TestDefaultTestbedPinned(t *testing.T) {
	cfg, err := testbedConfig("weak", 1, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tb.Device.ConfigDigest(), uint64(0x05a7ff7c51470727); got != want {
		t.Errorf("config digest %#016x, want %#016x", got, want)
	}
}

// TestRunCampaignReportsFailure checks that a campaign that cannot run
// returns its error, which main turns into exit status 1, instead of
// printing a "no leak" result.
func TestRunCampaignReportsFailure(t *testing.T) {
	cfg, err := testbedConfig("weak", 1, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := cloud.NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = runCampaign(tb, attack.CampaignConfig{TargetsPerFile: 100000})
	if err == nil || !strings.Contains(err.Error(), "TargetsPerFile 100000") {
		t.Fatalf("runCampaign with -targets 100000: error %v, want the fan-out rejected", err)
	}
}
