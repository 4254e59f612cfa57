package fleet

import (
	"math"
	"strings"
	"testing"
)

// TestMalformedSpecsFailValidateAndBuild: every malformed spec gets an
// error, not a panic, from both Validate and Build. NaN rates once passed
// the range checks and panicked in faults.New, and a negative Amplify
// silently ran as 1.
func TestMalformedSpecsFailValidateAndBuild(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		spec DeviceSpec
		want string
	}{
		{"NaN fault rate", DeviceSpec{FaultRate: nan}, "fault rates"},
		{"fault rate above 1", DeviceSpec{FaultRate: 1.5}, "fault rates"},
		{"negative fault rate", DeviceSpec{FaultRate: -0.1}, "fault rates"},
		{"NaN conn fault rate", DeviceSpec{ConnFaultRate: nan}, "fault rates"},
		{"conn fault rate above 1", DeviceSpec{ConnFaultRate: 2}, "fault rates"},
		{"negative amplify", DeviceSpec{Amplify: -3}, "amplification"},
		{"negative tenants", DeviceSpec{Tenants: -1}, "tenants"},
		{"too many tenants", DeviceSpec{Tenants: 1 << 16}, "tenants"},
		{"unknown profile", DeviceSpec{Profile: "granite"}, "unknown profile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := tc.spec
			sp.fillDefaults()
			if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate: %v, want an error naming %q", err, tc.want)
			}
			if _, err := tc.spec.Build(1, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Build: %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestPresetsAreFreshCopies: callers change a preset's config per trial
// (mitigation probes, -mitigation), so two calls must not share state.
func TestPresetsAreFreshCopies(t *testing.T) {
	a, ga, err := Preset("testbed")
	if err != nil {
		t.Fatal(err)
	}
	a.ECC = true
	ga.BlocksPerPlan = 1
	b, gb, _ := Preset("testbed")
	if b.ECC || gb.BlocksPerPlan == 1 {
		t.Fatal("a preset call returned state another call changed")
	}
	if _, _, err := Preset(""); err == nil {
		t.Fatal("empty profile accepted")
	}
}
