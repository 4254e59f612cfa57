package cloud

import (
	"testing"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/fleet"
)

// weakConfig is the testbed cmd/ftlhammer builds at its default flags
// (-profile weak -amplify 1 -seed 0xBEEF), before -mitigation.
func weakConfig(t *testing.T) Config {
	t.Helper()
	dcfg, geom, err := fleet.Preset("weak")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Device:           fleet.DeviceSpec{Profile: "weak", Amplify: 1, DRAM: &dcfg, Flash: &geom},
		VictimFillBlocks: 6144,
		Seed:             0xBEEF,
	}
}

// TestMitigatePinsDevices builds ftlhammer's default testbed under every
// documented -mitigation value and pins the device's nvme config digest
// and its state hash after setup, both taken when the catalogue was
// ftlhammer's own switch: moving it changed no device.
func TestMitigatePinsDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 14 testbeds; skipped with -short")
	}
	for _, tc := range []struct {
		spec          string
		config, state uint64
	}{
		{"none", 0x05a7ff7c51470727, 0x7c9f4c1f120ef6c6},
		{"ecc", 0x94ec1e951e23fcda, 0x5d1a4ab486085271},
		{"trr", 0x2a1ff2736288ac2d, 0xbc603a1c2c98db05},
		{"trr:1", 0x2a1ff2736288ac2d, 0xbc603a1c2c98db05},
		{"trr:4", 0xbe76a3ce174076b6, 0x6791f66ec2cb015a},
		{"para", 0x394a76eac642bc21, 0xa5db915f305478a8},
		{"para:0.05", 0x8fa81296b0a63942, 0xc9b1ae75be412893},
		{"refresh2x", 0x133baafa02925010, 0x22862efc9022e75d},
		{"refresh:2", 0x133baafa02925010, 0x22862efc9022e75d},
		{"cache", 0x04298049c0d53ba5, 0x2582bb3701964eb1},
		{"ratelimit", 0xae1000e637164fc1, 0x4ddeaf0ec70b82c3},
		{"hashed", 0x364f0d616182eb5b, 0x70a9c17f049be3c7},
		{"extent-only", 0x05a7ff7c51470727, 0x6b18b0cd14a5dddb},
		{"guard", 0x353da3824d3fe2c3, 0xd2efd3a32e989d3c},
	} {
		cfg := weakConfig(t)
		if err := cfg.Mitigate(tc.spec); err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		tb, err := NewTestbed(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if got := tb.Device.ConfigDigest(); got != tc.config {
			t.Errorf("%s: config digest %#016x, want %#016x", tc.spec, got, tc.config)
		}
		if got := tb.Device.StateHash(); got != tc.state {
			t.Errorf("%s: state hash after setup %#016x, want %#016x", tc.spec, got, tc.state)
		}
	}
}

// TestMitigateReportsParserErrors checks that a malformed parameterized
// mitigation surfaces dram.ParseMitigation's own error instead of a
// generic "unknown mitigation", that unknown names list the whole
// vocabulary, and that an in-DRAM mitigation without a DRAM override is
// refused.
func TestMitigateReportsParserErrors(t *testing.T) {
	for spec, want := range map[string]string{
		"trr:0":  `dram: bad TRR sampler size "0"`,
		"para:2": `dram: bad PARA probability "2"`,
		"bogus":  `unknown mitigation "bogus" (want ` + MitigationNames + `)`,
		"ecc:1":  `unknown mitigation "ecc:1" (want ` + MitigationNames + `)`,
	} {
		cfg := weakConfig(t)
		err := cfg.Mitigate(spec)
		if err == nil || err.Error() != want {
			t.Errorf("-mitigation %s: error %v, want %q", spec, err, want)
		}
	}
	var cfg Config
	if err := cfg.Mitigate("ecc"); err == nil {
		t.Error("ecc without Device.DRAM: no error")
	}
}

// TestMitigateConfigures checks a named and a parameterized spec, and
// that an FTL mitigation allocates the FTL override it changes.
func TestMitigateConfigures(t *testing.T) {
	cfg := weakConfig(t)
	if err := cfg.Mitigate("ecc"); err != nil || !cfg.Device.DRAM.ECC {
		t.Errorf("ecc: err %v, ECC %v", err, cfg.Device.DRAM.ECC)
	}
	cfg = weakConfig(t)
	if err := cfg.Mitigate("trr:4"); err != nil {
		t.Fatal(err)
	}
	if m := cfg.Device.DRAM.Profile.Mitigation; m.Mode != dram.MitTRR || m.TRR.SamplerSize != 4 {
		t.Errorf("trr:4 configured %+v", m)
	}
	cfg = weakConfig(t)
	if err := cfg.Mitigate("hashed"); err != nil || cfg.Device.FTL == nil ||
		!cfg.Device.FTL.Hashed || cfg.Device.FTL.HashKey != 0xBEEF^0xD00D {
		t.Errorf("hashed: err %v, FTL %+v", err, cfg.Device.FTL)
	}
}
