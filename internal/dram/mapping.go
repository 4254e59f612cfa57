package dram

import "fmt"

// lineBytes is the transfer granularity: consecutive 64-byte lines are the
// units interleaved across channels/banks, matching cache-line interleaving
// on the paper's Sandy Bridge testbed.
const lineBytes = 64

// RowTwist selects the in-DRAM logical-row to physical-row remapping.
// Real modules remap rows within subarrays for yield reasons, which is why
// the paper can "identify a contiguous run of three rows that do not have
// monotonically increasing physical addresses" (§4.2).
type RowTwist int

const (
	// TwistNone maps logical rows to physical rows identically.
	TwistNone RowTwist = iota
	// TwistXor3 XORs the low three row bits with the next three
	// (permutes rows within aligned groups of 8).
	TwistXor3
	// TwistInterleave interleaves rows within aligned groups of
	// TwistGroup rows: even physical offsets come from the first half of
	// the group and odd offsets from the second half. Under a half/half
	// partition split aligned with the group this places attacker-owned
	// rows on both sides of victim-owned rows — the cross-partition
	// sandwich of §4.2.
	TwistInterleave
)

func (t RowTwist) String() string {
	switch t {
	case TwistNone:
		return "none"
	case TwistXor3:
		return "xor3"
	case TwistInterleave:
		return "interleave"
	default:
		return "invalid"
	}
}

// apply maps a logical row index to a physical row index; group is the
// interleave group size (power of two).
func (t RowTwist) apply(row, group int) int {
	switch t {
	case TwistNone:
		return row
	case TwistXor3:
		return row ^ ((row >> 3) & 7)
	case TwistInterleave:
		base := row &^ (group - 1)
		off := row & (group - 1)
		half := group / 2
		// logical offsets [0,half) -> even physical offsets
		// logical offsets [half,group) -> odd physical offsets
		if off < half {
			return base | (off << 1)
		}
		return base | ((off-half)<<1 | 1)
	default:
		panic("dram: invalid RowTwist")
	}
}

// invert maps a physical row index back to the logical row index.
func (t RowTwist) invert(phys, group int) int {
	switch t {
	case TwistNone:
		return phys
	case TwistXor3:
		// Self-inverse: high bits unchanged, low bits re-XORed.
		return phys ^ ((phys >> 3) & 7)
	case TwistInterleave:
		base := phys &^ (group - 1)
		off := phys & (group - 1)
		if off&1 == 0 {
			return base | (off >> 1)
		}
		return base | ((off >> 1) + group/2)
	default:
		panic("dram: invalid RowTwist")
	}
}

// MapperConfig configures the memory-controller address mapping.
type MapperConfig struct {
	// Twist is the in-DRAM row remapping.
	Twist RowTwist
	// TwistGroup is the row-group size for TwistInterleave (power of
	// two; default 32). Modelling note: the group size is a property of
	// the module's internal remapping, discovered by the attacker's
	// offline reverse engineering (§4.2).
	TwistGroup int
	// XorBank XORs the bank-select bits with the low row bits
	// (permutation-based bank interleaving, standard on the testbed's
	// memory controller and the reason DRAMA-style reverse engineering
	// is needed).
	XorBank bool
	// XorChannel XORs the channel-select bits with row bits.
	XorChannel bool
}

// Mapper translates physical DRAM addresses to locations and back. The
// attack's offline analysis step (§3.1, §4.2) uses the inverse direction
// to enumerate which addresses share a physical row.
type Mapper struct {
	geo Geometry
	cfg MapperConfig

	chBits, dimmBits, rankBits, bankBits, colHiBits, rowBits uint
	lineBits                                                 uint
	capacity                                                 uint64
}

// NewMapper builds a mapper for the geometry. It panics on an invalid
// geometry, which always indicates a configuration bug.
func NewMapper(geo Geometry, cfg MapperConfig) *Mapper {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	if cfg.TwistGroup == 0 {
		cfg.TwistGroup = 32
	}
	if cfg.TwistGroup < 2 || cfg.TwistGroup&(cfg.TwistGroup-1) != 0 || cfg.TwistGroup > geo.RowsPerBank {
		panic(fmt.Sprintf("dram: TwistGroup %d must be a power of two in [2, RowsPerBank]", cfg.TwistGroup))
	}
	return &Mapper{
		geo:       geo,
		cfg:       cfg,
		lineBits:  log2(lineBytes),
		chBits:    log2(geo.Channels),
		dimmBits:  log2(geo.DIMMs),
		rankBits:  log2(geo.Ranks),
		bankBits:  log2(geo.Banks),
		colHiBits: log2(geo.RowBytes) - log2(lineBytes),
		rowBits:   log2(geo.RowsPerBank),
		capacity:  geo.Capacity(),
	}
}

// Geometry returns the mapped geometry.
func (m *Mapper) Geometry() Geometry { return m.geo }

// Map translates a physical address to its DRAM location.
// The bit layout, low to high, is:
//
//	[line offset | channel | dimm | rank | bank | column-high | row]
//
// with the configured XOR spreading and row twist applied on top.
func (m *Mapper) Map(addr uint64) Location {
	ch, dimm, rank, bank, row := m.split(addr)
	colHi := int(addr>>(m.lineBits+m.chBits+m.dimmBits+m.rankBits+m.bankBits)) & (1<<m.colHiBits - 1)
	return Location{
		Channel: ch,
		DIMM:    dimm,
		Rank:    rank,
		Bank:    bank,
		Row:     m.cfg.Twist.apply(row, m.cfg.TwistGroup),
		Col:     colHi<<m.lineBits | int(addr&(lineBytes-1)),
	}
}

// BankRow returns the flat bank index and physical row of addr's
// location, (Geometry.FlatBank(Map(addr)), Map(addr).Row), without
// building a Location: the per-access activation path needs only these.
func (m *Mapper) BankRow(addr uint64) (flatBank, row int) {
	ch, dimm, rank, bank, row := m.split(addr)
	return ((ch<<m.dimmBits|dimm)<<m.rankBits|rank)<<m.bankBits | bank, m.cfg.Twist.apply(row, m.cfg.TwistGroup)
}

// flatRank returns the dense index over all ranks of the rank holding a
// flat bank (BankRow, Geometry.FlatBank): the bits above the bank field.
func (m *Mapper) flatRank(flatBank int) int { return flatBank >> m.bankBits }

// split decodes addr's channel, DIMM, rank and bank fields, with the XOR
// spreading applied, and its logical (untwisted) row.
func (m *Mapper) split(addr uint64) (ch, dimm, rank, bank, row int) {
	if addr >= m.capacity {
		panic(fmt.Sprintf("dram: address %#x out of range (capacity %#x)", addr, m.capacity))
	}
	a := addr >> m.lineBits
	ch = int(a) & (m.geo.Channels - 1)
	a >>= m.chBits
	dimm = int(a) & (m.geo.DIMMs - 1)
	a >>= m.dimmBits
	rank = int(a) & (m.geo.Ranks - 1)
	a >>= m.rankBits
	bank = int(a) & (m.geo.Banks - 1)
	row = int(a>>(m.bankBits+m.colHiBits)) & (m.geo.RowsPerBank - 1)
	if m.cfg.XorBank {
		bank ^= row & (m.geo.Banks - 1)
	}
	if m.cfg.XorChannel {
		ch ^= (row >> 3) & (m.geo.Channels - 1)
	}
	return ch, dimm, rank, bank, row
}

// Unmap translates a DRAM location back to its physical address. It is the
// exact inverse of Map.
func (m *Mapper) Unmap(loc Location) uint64 {
	row := m.cfg.Twist.invert(loc.Row, m.cfg.TwistGroup)
	bank := loc.Bank
	if m.cfg.XorBank {
		bank ^= row & (m.geo.Banks - 1)
	}
	ch := loc.Channel
	if m.cfg.XorChannel {
		ch ^= (row >> 3) & (m.geo.Channels - 1)
	}
	colHi := loc.Col >> m.lineBits
	lo := loc.Col & (lineBytes - 1)

	a := uint64(row)
	a = a<<m.colHiBits | uint64(colHi)
	a = a<<m.bankBits | uint64(bank)
	a = a<<m.rankBits | uint64(loc.Rank)
	a = a<<m.dimmBits | uint64(loc.DIMM)
	a = a<<m.chBits | uint64(ch)
	a = a<<m.lineBits | uint64(lo)
	return a
}

// RowAddrs returns every physical address held by the given bank/physical
// row, at `stride` byte granularity (stride must divide the line size or be
// a multiple of it). This is the offline enumeration primitive the attacker
// uses to find which L2P entries share aggressor rows. Hot callers that
// enumerate rows in a loop should reuse a scratch slice via AppendRowAddrs
// instead; RowAddrs allocates a fresh slice per call.
func (m *Mapper) RowAddrs(loc Location, stride int) []uint64 {
	return m.AppendRowAddrs(nil, loc, stride)
}

// AppendRowAddrs appends the row's addresses to dst and returns the
// extended slice, allocating only when dst lacks capacity. Passing
// dst[:0] of a reused scratch buffer makes repeated enumeration
// allocation-free.
func (m *Mapper) AppendRowAddrs(dst []uint64, loc Location, stride int) []uint64 {
	if stride <= 0 {
		panic("dram: non-positive stride")
	}
	if dst == nil {
		dst = make([]uint64, 0, m.geo.RowBytes/stride)
	}
	for col := 0; col < m.geo.RowBytes; col += stride {
		l := loc
		l.Col = col
		dst = append(dst, m.Unmap(l))
	}
	return dst
}
