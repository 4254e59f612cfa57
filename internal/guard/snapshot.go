package guard

import (
	"fmt"
	"sort"

	"ftlhammer/internal/sim"
	"ftlhammer/internal/snapshot"
)

// snapSection is the snapshot section owned by the guard.
const snapSection = "guard"

// ConfigString renders the guard's effective (default-resolved)
// configuration for inclusion in the device config digest. It keeps the
// text of a %+v print of the older Config that also held the design
// constants, so every pinned config digest stays put.
func (g *Guard) ConfigString() string {
	if g == nil {
		return ""
	}
	return fmt.Sprintf("{Window:%v RowThreshold:%d ThrottleIOPS:%d Penalty:%v Enforce:%t HashCount:%d FilterCounters:%d}",
		window, g.cfg.RowThreshold, throttleIOPS, penalty, g.cfg.Enforce, hashCount, filterCounters)
}

// SaveTo appends the guard's state — both filters' counter arrays, the
// epoch anchor and rotation role, cumulative stats, and the per-
// namespace verdict columns — to a snapshot under construction,
// namespaces sorted by id. Filter counters are dumped verbatim so a
// restored guard continues with bit-identical heat estimates.
func (g *Guard) SaveTo(w *snapshot.Writer) {
	s := w.Section(snapSection)
	s.U64("young", uint64(g.young))
	s.U64("epoch_start", uint64(g.epochStart))
	s.U64("inserts", g.stats.Inserts)
	s.U64("blacklists", g.stats.Blacklists)
	s.U64("rotations", g.stats.Rotations)
	s.U64s("f0", g.filters[0].counters)
	s.U64s("f1", g.filters[1].counters)
	ids := make([]int, 0, len(g.ns))
	for id := range g.ns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	nsID := make([]uint64, len(ids))
	thrTo := make([]uint64, len(ids))
	viol := make([]uint64, len(ids))
	for i, id := range ids {
		st := g.ns[id]
		nsID[i] = uint64(id)
		thrTo[i] = uint64(st.throttledTo)
		viol[i] = st.violations
	}
	s.U64s("ns_id", nsID)
	s.U64s("thr_to", thrTo)
	s.U64s("violations", viol)
}

// LoadFrom restores the guard from its section of a decoded snapshot,
// replacing all filter and per-namespace state. Filter sizes must match
// the guard's geometry: a snapshot with another counter count would not
// continue identically, so length mismatches are rejected rather than
// resized.
func (g *Guard) LoadFrom(snap *snapshot.Snapshot) error {
	s := snap.Section(snapSection)
	young := s.U64("young")
	epochStart := s.U64("epoch_start")
	inserts := s.U64("inserts")
	blacklists := s.U64("blacklists")
	rotations := s.U64("rotations")
	f0 := s.U64s("f0")
	f1 := s.U64s("f1")
	nsID := s.U64s("ns_id")
	thrTo := s.U64s("thr_to")
	viol := s.U64s("violations")
	if s.Err() == nil {
		if young > 1 {
			s.Reject("young", "filter index %d out of range", young)
		}
		if len(f0) != filterCounters || len(f1) != filterCounters {
			s.Reject("f0", "snapshot has %d+%d counters but guard is configured for 2x%d",
				len(f0), len(f1), filterCounters)
		}
		if len(thrTo) != len(nsID) || len(viol) != len(nsID) {
			s.Reject("ns_id", "namespace column lengths disagree")
		}
	}
	if err := s.Err(); err != nil {
		return err
	}
	g.young = int(young)
	g.epochStart = sim.Time(epochStart)
	g.stats = Stats{Inserts: inserts, Blacklists: blacklists, Rotations: rotations}
	for fi, src := range [2][]uint64{f0, f1} {
		f := g.filters[fi]
		copy(f.counters, src)
		f.occupied = 0
		for _, c := range f.counters {
			if c != 0 {
				f.occupied++
			}
		}
	}
	g.ns = make(map[int]*nsState, len(nsID))
	for i, id := range nsID {
		g.ns[int(id)] = &nsState{
			throttledTo: sim.Time(thrTo[i]),
			violations:  viol[i],
		}
	}
	return nil
}
