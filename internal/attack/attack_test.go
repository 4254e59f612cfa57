package attack

import (
	"reflect"
	"slices"
	"testing"

	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/sim"
)

func TestParsePattern(t *testing.T) {
	cases := []struct {
		spec  string
		sides int
		sync  bool
	}{
		{"double", 2, false},
		{"", 2, false},
		{"single", 1, false},
		{"one-location", 1, false},
		{"onelocation", 1, false},
		{"many:3", 3, false},
		{"many:5", 5, false},
		{"fuzzed:7", 0, false}, // sides vary; checked separately
	}
	for _, c := range cases {
		p, err := ParsePattern(c.spec)
		if err != nil {
			t.Fatalf("ParsePattern(%q): %v", c.spec, err)
		}
		if c.sides > 0 && p.Sides != c.sides {
			t.Errorf("ParsePattern(%q).Sides = %d, want %d", c.spec, p.Sides, c.sides)
		}
		p.Iterations = 1
		if err := p.Validate(); err != nil {
			t.Errorf("ParsePattern(%q) is invalid: %v", c.spec, err)
		}
		// Round trip: every non-empty spec renders back to itself and
		// reparses to the same pattern.
		if c.spec == "" || c.spec == "onelocation" {
			continue
		}
		if p.String() != c.spec {
			t.Errorf("ParsePattern(%q).String() = %q", c.spec, p.String())
		}
		q, err := ParsePattern(p.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", p.String(), err)
		}
		q.Iterations = 1
		if !reflect.DeepEqual(p, q) {
			t.Errorf("round trip of %q changed the pattern: %+v vs %+v", c.spec, p, q)
		}
	}
}

func TestParsePatternErrors(t *testing.T) {
	for _, spec := range []string{
		"triple", "double:2", "single:x", "many", "many:2", "many:x",
		"fuzzed", "fuzzed:zz", "one-location:1",
	} {
		if _, err := ParsePattern(spec); err == nil {
			t.Errorf("ParsePattern(%q) accepted", spec)
		}
	}
}

func TestFuzzedPatternDeterministic(t *testing.T) {
	a, b := FuzzedPattern(7), FuzzedPattern(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fuzzed:7 differs between draws: %+v vs %+v", a, b)
	}
	if a.Spec != "fuzzed:7" {
		t.Fatalf("FuzzedPattern spec = %q", a.Spec)
	}
	// Different seeds should draw different shapes somewhere in a small
	// range (the spec strings differ regardless; compare structure).
	base := a
	base.Spec = ""
	varies := false
	for seed := uint64(0); seed < 16 && !varies; seed++ {
		p := FuzzedPattern(seed)
		p.Spec = ""
		varies = p.String() != base.String()
	}
	if !varies {
		t.Error("16 fuzzed seeds all drew the identical structure")
	}
}

func TestSlotString(t *testing.T) {
	cases := []struct {
		slot Slot
		want string
	}{
		{Slot{Aggressor: 2}, "2"},
		{Slot{Aggressor: 2, Every: 3}, "2/3"},
		{Slot{Aggressor: 2, Every: 3, Phase: 1}, "2/3+1"},
		{Slot{Aggressor: DecoyTarget, Every: 2}, "d/2"},
	}
	for _, c := range cases {
		if got := c.slot.String(); got != c.want {
			t.Errorf("Slot%+v.String() = %q, want %q", c.slot, got, c.want)
		}
	}
}

func TestPatternValidate(t *testing.T) {
	bad := []Pattern{
		{Sides: 2},                // no iterations
		{Sides: 0, Iterations: 1}, // no sides
		{Sides: 2, Iterations: 1, Slots: []Slot{{Aggressor: 2}}},  // slot out of range
		{Sides: 2, Iterations: 1, Slots: []Slot{{Every: -1}}},     // negative schedule
		{Sides: 2, Iterations: 1, CacheEvictLines: -1},            // negative evict
		{Sides: 2, Iterations: 1, Slots: []Slot{{Aggressor: -2}}}, // not DecoyTarget
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
	good := Pattern{Sides: 2, Iterations: 1, Slots: []Slot{{Aggressor: DecoyTarget}}}
	if err := good.Validate(); err != nil {
		t.Errorf("decoy slot rejected: %v", err)
	}
}

func TestWithoutDecoys(t *testing.T) {
	p := SinglePattern()
	if !p.NeedsDecoy() {
		t.Fatal("single pattern should need a decoy")
	}
	q := p.WithoutDecoys()
	if q.NeedsDecoy() {
		t.Fatalf("WithoutDecoys still needs a decoy: %+v", q)
	}
	if len(q.Slots) != 1 || q.Slots[0].Aggressor != 0 {
		t.Fatalf("WithoutDecoys slots = %+v", q.Slots)
	}
	sync := Pattern{Sides: 2, SyncDecoy: true}
	if got := sync.WithoutDecoys(); got.SyncDecoy {
		t.Fatal("WithoutDecoys kept SyncDecoy")
	}
	plain := DoublePattern()
	if got := plain.WithoutDecoys(); !reflect.DeepEqual(got, plain) {
		t.Fatalf("WithoutDecoys changed a decoy-free pattern: %+v", got)
	}
}

func TestClampSides(t *testing.T) {
	p := ManyPattern(4)
	q := p.ClampSides(2)
	q.Iterations = 10
	if q.Sides != 2 {
		t.Fatalf("ClampSides kept Sides = %d", q.Sides)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("clamped pattern invalid: %v", err)
	}
	for _, s := range q.Slots {
		if s.Aggressor >= 2 {
			t.Fatalf("clamped pattern still targets side %d", s.Aggressor)
		}
	}
	// Decoy slots and REF sync survive clamping (they are orthogonal).
	withDecoy := Pattern{
		Sides:     3,
		SyncDecoy: true,
		Slots:     []Slot{{Aggressor: 0}, {Aggressor: 1}, {Aggressor: 2}, {Aggressor: DecoyTarget, Every: 2}},
	}
	c := withDecoy.ClampSides(2)
	if !c.SyncDecoy || !c.NeedsDecoy() {
		t.Fatalf("clamping dropped decoy behaviour: %+v", c)
	}
	if len(c.Slots) != 3 {
		t.Fatalf("clamped slots = %+v", c.Slots)
	}
	plain := DoublePattern()
	if got := plain.ClampSides(4); !reflect.DeepEqual(got, plain) {
		t.Fatalf("ClampSides changed a pattern within bounds: %+v", got)
	}
}

// TestMutateStaysValid walks a long mutation chain and checks every
// mutant is executable — the fuzzer must never generate patterns the
// pipeline rejects.
func TestMutateStaysValid(t *testing.T) {
	rng := sim.NewRNG(42)
	p := DoublePattern()
	for i := 0; i < 300; i++ {
		p = p.Mutate(rng)
		q := p
		q.Iterations = 1
		if err := q.Validate(); err != nil {
			t.Fatalf("mutation %d produced invalid pattern %s: %v", i, p, err)
		}
	}
}

// TestEvaluateDeterministic is the reproducibility contract: the same
// target seed and the same pattern produce the identical command trace,
// fitness (flips, guard verdicts, mitigation refreshes), and final
// device state hash on every run.
func TestEvaluateDeterministic(t *testing.T) {
	target := TargetSpec{Seed: 0xF022}
	pat := Pattern{Sides: 2, SyncDecoy: true}

	fit1, entries1, err := target.RecordEvaluation(pat)
	if err != nil {
		t.Fatal(err)
	}
	fit2, entries2, err := target.RecordEvaluation(pat)
	if err != nil {
		t.Fatal(err)
	}
	if fit1 != fit2 {
		t.Fatalf("fitness differs across runs: %s vs %s", fit1, fit2)
	}
	if !reflect.DeepEqual(entries1, entries2) {
		t.Fatalf("command traces differ: %d vs %d entries", len(entries1), len(entries2))
	}
	out1, err := target.Replay(entries1)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := target.Replay(entries2)
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatalf("replay outcomes differ: %+v vs %+v", out1, out2)
	}
	if out1.Flips != fit1.Flips {
		t.Fatalf("timed replay flips %d, live evaluation flips %d", out1.Flips, fit1.Flips)
	}
}

// TestFuzzerDeterministic pins the search itself: same seed, same
// target, same report.
func TestFuzzerDeterministic(t *testing.T) {
	run := func() *Report {
		f := &Fuzzer{Target: TargetSpec{Seed: 0xF022}, Seed: 3, Generations: 2, Population: 4}
		rep, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Best.Pattern.String() != b.Best.Pattern.String() {
		t.Fatalf("best pattern differs: %s vs %s", a.Best.Pattern, b.Best.Pattern)
	}
	if a.Best.Fitness != b.Best.Fitness {
		t.Fatalf("best fitness differs: %s vs %s", a.Best.Fitness, b.Best.Fitness)
	}
	if a.Evaluated != b.Evaluated {
		t.Fatalf("evaluation counts differ: %d vs %d", a.Evaluated, b.Evaluated)
	}
}

// TestAllocators checks the paper's placement yields hammerable bindings
// with the fast-read invariant (one pinned LBA per side).
func TestAllocators(t *testing.T) {
	t.Run("contiguous", func(t *testing.T) {
		dev, err := TargetSpec{Seed: 0xA110C}.Build(nil)
		if err != nil {
			t.Fatal(err)
		}
		ns, _ := dev.NamespaceByID(1)
		alloc := &ContiguousAllocator{MaxBindings: 3}
		bindings, err := alloc.Allocate(dev, ns, nvme.PathDirect, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(bindings) == 0 {
			t.Fatal("no bindings")
		}
		if len(bindings) > 3 {
			t.Fatalf("MaxBindings not honoured: %d", len(bindings))
		}
		for _, b := range bindings {
			if len(b.Sides) < 2 {
				t.Fatalf("binding has %d sides", len(b.Sides))
			}
			for s, group := range b.Sides {
				if len(group) != 1 {
					t.Fatalf("side %d not pinned to one LBA: %v", s, group)
				}
			}
		}
	})
}

// TestVictimEntriesMatchesNestedLoop checks Binding.VictimEntries against
// the nested walk it replaced, over random bindings, random maxLines,
// caller slices that already hold entries, and namespaces whose boundary
// splits a line.
func TestVictimEntriesMatchesNestedLoop(t *testing.T) {
	rng := sim.NewRNG(31)
	splits := 0
	for trial := 0; trial < 2000; trial++ {
		ns := &nvme.Namespace{StartLBA: ftl.LBA(rng.Intn(300)), NumLBAs: uint64(1 + rng.Intn(300))}
		var b Binding
		for n := rng.Intn(6); n > 0; n-- {
			b.VictimGlobalLBAs = append(b.VictimGlobalLBAs, ftl.LBA(rng.Intn(640)))
		}
		maxLines := rng.Intn(8) - 2
		prefix := make([]ftl.LBA, rng.Intn(3))
		for i := range prefix {
			prefix[i] = ftl.LBA(rng.Intn(1000))
		}

		want := append([]ftl.LBA(nil), prefix...)
		lines := b.VictimGlobalLBAs
		if maxLines > 0 && len(lines) > maxLines {
			lines = lines[:maxLines]
		}
		end := ns.StartLBA + ftl.LBA(ns.NumLBAs)
		for _, g := range lines {
			last := g + 64/ftl.EntryBytes - 1
			if (g < ns.StartLBA && last >= ns.StartLBA) || (g < end && last >= end) {
				splits++
			}
			for k := ftl.LBA(0); k < 64/ftl.EntryBytes; k++ {
				rel := g + k - ns.StartLBA
				if g+k < ns.StartLBA || uint64(rel) >= ns.NumLBAs {
					continue
				}
				want = append(want, rel)
			}
		}

		got := b.VictimEntries(prefix, ns, maxLines)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: ns [%d,+%d) lines %v maxLines %d: got %v, want %v",
				trial, ns.StartLBA, ns.NumLBAs, b.VictimGlobalLBAs, maxLines, got, want)
		}
	}
	if splits == 0 {
		t.Fatal("no trial split a line at a namespace boundary")
	}
}
