package dram

import (
	"fmt"
	"testing"

	"ftlhammer/internal/sim"
)

// TestMapUnmapRoundtrip fuzzes the controller mapping in both directions
// across every twist/XOR configuration: Unmap(Map(addr)) must return the
// address and Map(Unmap(loc)) the location. The offline-analysis stage of
// the attack depends on this inverse being exact.
func TestMapUnmapRoundtrip(t *testing.T) {
	geo := Geometry{
		Channels:    2,
		DIMMs:       2,
		Ranks:       2,
		Banks:       8,
		RowsPerBank: 1 << 10,
		RowBytes:    8 << 10,
	}
	for _, twist := range []RowTwist{TwistNone, TwistXor3, TwistInterleave} {
		for _, group := range []int{8, 32} {
			for _, xorBank := range []bool{false, true} {
				for _, xorChan := range []bool{false, true} {
					cfg := MapperConfig{Twist: twist, TwistGroup: group, XorBank: xorBank, XorChannel: xorChan}
					name := fmt.Sprintf("%v-g%d-xb%v-xc%v", twist, group, xorBank, xorChan)
					t.Run(name, func(t *testing.T) {
						m := NewMapper(geo, cfg)
						rng := sim.NewRNG(0xF00D)
						for i := 0; i < 4096; i++ {
							addr := rng.Uint64n(geo.Capacity())
							loc := m.Map(addr)
							if got := m.Unmap(loc); got != addr {
								t.Fatalf("Unmap(Map(%#x)) = %#x (loc %+v)", addr, got, loc)
							}
						}
						for i := 0; i < 4096; i++ {
							loc := Location{
								Channel: int(rng.Uint64n(uint64(geo.Channels))),
								DIMM:    int(rng.Uint64n(uint64(geo.DIMMs))),
								Rank:    int(rng.Uint64n(uint64(geo.Ranks))),
								Bank:    int(rng.Uint64n(uint64(geo.Banks))),
								Row:     int(rng.Uint64n(uint64(geo.RowsPerBank))),
								Col:     int(rng.Uint64n(uint64(geo.RowBytes))),
							}
							if got := m.Map(m.Unmap(loc)); got != loc {
								t.Fatalf("Map(Unmap(%+v)) = %+v", loc, got)
							}
						}
					})
				}
			}
		}
	}
}

// TestBankRowMatchesMap pins the activation path's mapping, BankRow, to
// the flat bank and row of the full Map, and flatRank to the location's
// rank over all channels and DIMMs, on every shipped geometry with
// no twist, with the interleave twist and bank XOR, and with the xor3
// twist and both XORs.
func TestBankRowMatchesMap(t *testing.T) {
	geos := []struct {
		name string
		geo  Geometry
	}{{"small", SmallGeometry()}, {"ssd", SSDGeometry()}, {"testbed", TestbedGeometry()}}
	cfgs := []struct {
		name string
		cfg  MapperConfig
	}{
		{"none", MapperConfig{}},
		{"interleave-xorbank", MapperConfig{Twist: TwistInterleave, XorBank: true}},
		{"xor3-xorbank-xorchannel", MapperConfig{Twist: TwistXor3, XorBank: true, XorChannel: true}},
	}
	for _, g := range geos {
		for _, c := range cfgs {
			t.Run(g.name+"/"+c.name, func(t *testing.T) {
				m := NewMapper(g.geo, c.cfg)
				capacity := g.geo.Capacity()
				rng := sim.NewRNG(0xBEEF)
				addrs := []uint64{0, lineBytes, capacity - 1}
				for i := 0; i < 1<<14; i++ {
					addrs = append(addrs, rng.Uint64n(capacity))
				}
				for _, addr := range addrs {
					loc := m.Map(addr)
					bank, row := m.BankRow(addr)
					if bank != g.geo.FlatBank(loc) || row != loc.Row {
						t.Fatalf("BankRow(%#x) = (%d, %d), want (%d, %d) from %+v",
							addr, bank, row, g.geo.FlatBank(loc), loc.Row, loc)
					}
					if rank := (loc.Channel*g.geo.DIMMs+loc.DIMM)*g.geo.Ranks + loc.Rank; m.flatRank(bank) != rank {
						t.Fatalf("flatRank(%d) = %d, want %d from %+v", bank, m.flatRank(bank), rank, loc)
					}
				}
			})
		}
	}
}

// FuzzMapper checks the mapping on arbitrary geometries and mapper
// configurations: Unmap inverts Map, and BankRow and flatRank agree
// with Map.
// geoBits picks each power-of-two dimension; cfgBits the twist, its
// group and the two XORs.
func FuzzMapper(f *testing.F) {
	f.Add(uint64(0), uint32(0), uint8(0))
	f.Add(uint64(0x1234_5678_9abc), uint32(0x3fff), uint8(0xff))
	f.Add(uint64(1)<<33, uint32(0x2b5d), uint8(0x5a))
	f.Fuzz(func(t *testing.T, addr uint64, geoBits uint32, cfgBits uint8) {
		geo := Geometry{
			Channels:    1 << (geoBits & 3),
			DIMMs:       1 << (geoBits >> 2 & 1),
			Ranks:       1 << (geoBits >> 3 & 1),
			Banks:       1 << (geoBits >> 4 & 3),
			RowsPerBank: 1 << (1 + geoBits>>6&15),
			RowBytes:    lineBytes << (geoBits >> 10 & 7),
		}
		cfg := MapperConfig{
			Twist:      RowTwist(cfgBits & 3 % 3),
			TwistGroup: min(2<<(cfgBits>>2&7), geo.RowsPerBank),
			XorBank:    cfgBits&0x20 != 0,
			XorChannel: cfgBits&0x40 != 0,
		}
		m := NewMapper(geo, cfg)
		addr %= geo.Capacity()
		loc := m.Map(addr)
		if got := m.Unmap(loc); got != addr {
			t.Fatalf("%v %+v: Unmap(Map(%#x)) = %#x (loc %+v)", geo, cfg, addr, got, loc)
		}
		bank, row := m.BankRow(addr)
		if bank != geo.FlatBank(loc) || row != loc.Row {
			t.Fatalf("%v %+v: BankRow(%#x) = (%d, %d), want (%d, %d)",
				geo, cfg, addr, bank, row, geo.FlatBank(loc), loc.Row)
		}
		if rank := (loc.Channel*geo.DIMMs+loc.DIMM)*geo.Ranks + loc.Rank; m.flatRank(bank) != rank {
			t.Fatalf("%v %+v: flatRank(%d) = %d, want %d", geo, cfg, bank, m.flatRank(bank), rank)
		}
	})
}

// TestAppendRowAddrsReuse verifies the allocation-free enumeration path
// returns the same addresses as the allocating one and reuses capacity.
func TestAppendRowAddrsReuse(t *testing.T) {
	m := NewMapper(SmallGeometry(), MapperConfig{XorBank: true})
	loc := Location{Bank: 3, Row: 200}
	fresh := m.RowAddrs(loc, 64)
	scratch := make([]uint64, 0, len(fresh))
	got := m.AppendRowAddrs(scratch[:0], loc, 64)
	if len(got) != len(fresh) {
		t.Fatalf("AppendRowAddrs returned %d addrs, want %d", len(got), len(fresh))
	}
	for i := range got {
		if got[i] != fresh[i] {
			t.Fatalf("addr %d: %#x != %#x", i, got[i], fresh[i])
		}
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("AppendRowAddrs reallocated despite sufficient capacity")
	}
}
