package main

import (
	"strings"
	"testing"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/cloud"
	"ftlhammer/internal/dram"
)

// TestApplyMitigationReportsParserErrors checks that a malformed
// parameterized mitigation surfaces dram.ParseMitigation's own error
// instead of a generic "unknown mitigation", and that unknown names list
// the whole -mitigation vocabulary.
func TestApplyMitigationReportsParserErrors(t *testing.T) {
	for spec, want := range map[string]string{
		"trr:0":  `dram: bad TRR sampler size "0"`,
		"para:2": `dram: bad PARA probability "2"`,
		"bogus":  `unknown mitigation "bogus" (want ` + mitigationNames + `)`,
	} {
		cfg := weakConfig(t)
		err := applyMitigation(&cfg, spec, 1)
		if err == nil || err.Error() != want {
			t.Errorf("-mitigation %s: error %v, want %q", spec, err, want)
		}
	}
}

// TestApplyMitigationConfigures checks a named and a parameterized spec.
func TestApplyMitigationConfigures(t *testing.T) {
	cfg := weakConfig(t)
	if err := applyMitigation(&cfg, "ecc", 1); err != nil || !cfg.Device.DRAM.ECC {
		t.Errorf("ecc: err %v, ECC %v", err, cfg.Device.DRAM.ECC)
	}
	cfg = weakConfig(t)
	if err := applyMitigation(&cfg, "trr:4", 1); err != nil {
		t.Fatal(err)
	}
	if m := cfg.Device.DRAM.Profile.Mitigation; m.Mode != dram.MitTRR || m.TRR.SamplerSize != 4 {
		t.Errorf("trr:4 configured %+v", m)
	}
}

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

func weakConfig(t *testing.T) cloud.Config {
	t.Helper()
	cfg, err := testbedConfig("weak", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
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
