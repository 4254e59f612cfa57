package dram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"ftlhammer/internal/sim"
	"ftlhammer/internal/snapshot"
)

func TestParseMitigation(t *testing.T) {
	cases := []struct {
		spec string
		want string
		err  bool
	}{
		{spec: "none", want: "none"},
		{spec: "", want: "none"},
		{spec: "trr", want: "trr:1"},
		{spec: "trr:4", want: "trr:4"},
		{spec: "para", want: "para:0.001"},
		{spec: "para:0.02", want: "para:0.02"},
		{spec: "refresh", want: "refresh:2"},
		{spec: "refresh2x", want: "refresh:2"},
		{spec: "refresh:4", want: "refresh:4"},
		{spec: "trr:0", err: true},
		{spec: "para:2", err: true},
		{spec: "refresh:0", err: true},
		{spec: "blastproof", err: true},
	}
	for _, tc := range cases {
		mc, err := ParseMitigation(tc.spec)
		if tc.err {
			if err == nil {
				t.Errorf("ParseMitigation(%q): want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseMitigation(%q): %v", tc.spec, err)
			continue
		}
		if got := mc.String(); got != tc.want {
			t.Errorf("ParseMitigation(%q) = %s, want %s", tc.spec, got, tc.want)
		}
	}
}

// TestProfileMitigationAppliesKnobs: a profile-attached mitigation
// resolves into the module's config knobs, and explicit knobs win.
func TestProfileMitigationAppliesKnobs(t *testing.T) {
	mc, _ := ParseMitigation("trr:4")
	w := sim.NewWorld(1)
	m := New(Config{
		Geometry: SmallGeometry(),
		Profile:  TestbedProfile().WithMitigation(mc),
	}, w)
	if got := m.Config().TRR; !got.Enabled || got.SamplerSize != 4 {
		t.Fatalf("TRR knobs = %+v, want enabled sampler 4", got)
	}

	// Explicit PARA beats the profile's PARA parameter.
	pc, _ := ParseMitigation("para:0.5")
	m = New(Config{
		Geometry: SmallGeometry(),
		Profile:  TestbedProfile().WithMitigation(pc),
		PARA:     0.25,
	}, w)
	if got := m.Config().PARA; got != 0.25 {
		t.Fatalf("explicit PARA overridden: %v", got)
	}

	rc, _ := ParseMitigation("refresh:4")
	m = New(Config{
		Geometry: SmallGeometry(),
		Profile:  TestbedProfile().WithMitigation(rc),
	}, w)
	if got := m.Config().RefreshWindow; got != 16*sim.Millisecond {
		t.Fatalf("RefreshWindow = %v, want 16ms", got)
	}
}

// TestMitigationRNGIndependent: enabling PARA must not perturb the
// module's general RNG stream — the mitigation draws from its own
// stream, so weak-cell physics stay identical with and without it.
func TestMitigationRNGIndependent(t *testing.T) {
	build := func(para float64) *Module {
		w := sim.NewWorld(42)
		return New(Config{
			Geometry: SmallGeometry(),
			Profile:  TestbedProfile(),
			PARA:     para,
			Seed:     42,
		}, w)
	}
	plain, mitigated := build(0), build(0.5)
	if plain.rng.Uint64n(1<<32) != mitigated.rng.Uint64n(1<<32) {
		t.Fatal("general RNG stream differs when PARA is enabled")
	}
}

// TestMitigationRNGSurvivesSnapshot: the PARA stream continues
// byte-identically across Save/Load mid-run.
func TestMitigationRNGSurvivesSnapshot(t *testing.T) {
	build := func() (*Module, *sim.World) {
		w := sim.NewWorld(7)
		m := New(Config{
			Geometry: SmallGeometry(),
			Profile:  TestbedProfile(),
			PARA:     0.3,
			Seed:     7,
		}, w)
		return m, w
	}
	m, w := build()
	// Consume part of the mitigation stream via real activations.
	line := uint64(0)
	for i := 0; i < 500; i++ {
		m.Activate(line)
		line += uint64(m.cfg.Geometry.RowBytes)
		w.Clock.Advance(100 * sim.Nanosecond)
	}
	wr := snapshot.NewWriter()
	m.SaveTo(wr)
	snap, err := snapshot.Decode(snapBytes(wr))
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := build()
	if err := m2.LoadFrom(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if a, b := m.mitRNG.Uint64n(1<<62), m2.mitRNG.Uint64n(1<<62); a != b {
			t.Fatalf("mitigation stream diverges at draw %d: %d vs %d", i, a, b)
		}
	}
	if m.Stats() != m2.Stats() {
		t.Fatalf("stats diverge after restore: %+v vs %+v", m.Stats(), m2.Stats())
	}
}

// TestLoadRejectsPreZooSnapshots checks that LoadFrom refuses the two
// shapes builds before the mitigation zoo wrote, naming the field: 10
// stats counters, and no mit_rng. Accepting a stream without mit_rng
// would keep the module's own PARA stream, so a restore would not
// replace the whole state.
func TestLoadRejectsPreZooSnapshots(t *testing.T) {
	m := New(Config{Geometry: SmallGeometry(), Profile: TestbedProfile(), PARA: 0.3, Seed: 7}, sim.NewWorld(7))
	wr := snapshot.NewWriter()
	m.SaveTo(wr)
	cur := snapBytes(wr)
	for _, tc := range []struct {
		field  string
		stream []byte
	}{
		{"", cur},
		{"stats", shortenStats(t, cur, 10)},
		{"mit_rng", dropField(t, cur, "mit_rng")},
	} {
		snap, err := snapshot.Decode(tc.stream)
		if err != nil {
			t.Fatalf("decode with %q rewritten: %v", tc.field, err)
		}
		err = New(m.cfg, sim.NewWorld(7)).LoadFrom(snap)
		var fe *snapshot.FormatError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("current shape: %v", err)
		case tc.field != "" && (!errors.As(err, &fe) || fe.Field != tc.field):
			t.Errorf("old %s shape: error %v, want one naming field %q", tc.field, err, tc.field)
		}
	}
}

// fieldAt returns the offset of the name header of field name in the
// dram section of a SaveTo stream.
func fieldAt(t *testing.T, stream []byte, name string) int {
	t.Helper()
	hdr := binary.LittleEndian.AppendUint16(nil, uint16(len(name)))
	i := bytes.Index(stream, append(hdr, name...))
	if i < 0 {
		t.Fatalf("no field %q in the stream", name)
	}
	return i
}

// shortenStats rewrites the stats field of a SaveTo stream to its first n
// counters.
func shortenStats(t *testing.T, stream []byte, n int) []byte {
	cnt := fieldAt(t, stream, "stats") + 2 + len("stats") + 1
	vals := cnt + 4
	old := int(binary.LittleEndian.Uint32(stream[cnt:]))
	out := binary.LittleEndian.AppendUint32(append([]byte(nil), stream[:cnt]...), uint32(n))
	out = append(out, stream[vals:vals+8*n]...)
	return append(out, stream[vals+8*old:]...)
}

// dropField removes a uint64-array field from the dram section of a SaveTo
// stream and decrements the section's field count.
func dropField(t *testing.T, stream []byte, name string) []byte {
	i := fieldAt(t, stream, name)
	cnt := i + 2 + len(name) + 1
	end := cnt + 4 + 8*int(binary.LittleEndian.Uint32(stream[cnt:]))
	out := append(append([]byte(nil), stream[:i]...), stream[end:]...)
	nFields := fieldAt(t, out, snapSection) + 2 + len(snapSection)
	binary.LittleEndian.PutUint32(out[nFields:], binary.LittleEndian.Uint32(out[nFields:])-1)
	return out
}
