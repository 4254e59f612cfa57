package main

import (
	"testing"

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
		var cfg cloud.Config
		err := applyMitigation(&cfg, spec, 1)
		if err == nil || err.Error() != want {
			t.Errorf("-mitigation %s: error %v, want %q", spec, err, want)
		}
	}
}

// TestApplyMitigationConfigures checks a named and a parameterized spec.
func TestApplyMitigationConfigures(t *testing.T) {
	var cfg cloud.Config
	if err := applyMitigation(&cfg, "ecc", 1); err != nil || !cfg.DRAM.ECC {
		t.Errorf("ecc: err %v, ECC %v", err, cfg.DRAM.ECC)
	}
	cfg = cloud.Config{}
	if err := applyMitigation(&cfg, "trr:4", 1); err != nil {
		t.Fatal(err)
	}
	if m := cfg.DRAM.Profile.Mitigation; m.Mode != dram.MitTRR || m.TRR.SamplerSize != 4 {
		t.Errorf("trr:4 configured %+v", m)
	}
}
