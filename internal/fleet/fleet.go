package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"ftlhammer/internal/obs"
	"ftlhammer/internal/sim"
	"ftlhammer/internal/transport"
)

// Config describes a fleet: how many devices, how tenants are placed on
// them, and the per-device spec every member is built from. The zero value
// (plus a Spec) is a 1-device fleet — exactly the single-device daemon.
type Config struct {
	// Devices is the number of device members (default 1).
	Devices int
	// Placement maps fleet-wide tenants onto members. Every member serves
	// Spec.Tenants device-local namespaces; the fleet serves
	// Devices×Spec.Tenants tenants total.
	Placement Placement
	// Spec is the per-device build recipe. All members share it — a
	// migration target is rebuilt from this spec plus the source's seed,
	// which is what makes config digests (and therefore restores) line up.
	Spec DeviceSpec
	// Seed is the fleet root seed; member i simulates under
	// sim.SplitSeed(Seed, i) so device worlds are decorrelated shards.
	Seed uint64
	// Standby starts the fleet with no tenants placed: members are built
	// and serving but every route arrives via /fleet/receive. This is the
	// receiving side of a cross-process migration (tenant IDs are
	// instance-wide, so a receiver with its own placement would collide
	// with transferred tenants).
	Standby bool
	// Transport tunes every member's server (window, session limit,
	// drain grace).
	Transport transport.Config
	// Obs, when non-nil, is the root registry that MergedRegistry folds
	// every member's metrics into. Nil gets a fresh plain registry.
	Obs *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.Devices == 0 {
		c.Devices = 1
	}
	c.Spec.fillDefaults()
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
}

// Member is one device shard: its own world, device, registry and
// transport server on a loopback listener. A retired member (post-
// migration) keeps its registry so the fleet's merged metrics still cover
// the commands it served.
type Member struct {
	// Index is the member's slot in the fleet, the value routes point at.
	Index int
	// Seed is the world seed the member's device was built under; a
	// migration target must reuse it (the config digest covers it).
	Seed uint64
	// Reg is the member's private registry (the device world's Obs).
	Reg *obs.Registry
	// BD holds the built device parts.
	BD *BuiltDevice

	srv  *transport.Server
	addr string
	done chan struct{}
	// serveErr is the Serve result, readable after done closes.
	serveErr error
	// retired marks a member whose state has migrated away; its server is
	// drained and its routes point elsewhere.
	retired bool
}

// Addr returns the member server's listen address ("" before Start).
func (m *Member) Addr() string { return m.addr }

// Retired reports whether the member's state migrated away. It is set
// under the fleet's lock; read it after an operation that synchronizes
// with the fleet (Member, Shutdown) for a stable answer.
func (m *Member) Retired() bool { return m.retired }

// Fleet is N device members behind one routing frontend. Build with New,
// start the members with Start, serve clients with ServeFrontend, manage
// placement with Migrate/MigrateOut, stop with Shutdown, and collect the
// merged metrics with MergedRegistry.
type Fleet struct {
	cfg   Config
	table *Table

	mu       sync.Mutex
	members  []*Member
	started  bool
	serveCtx context.Context

	// migrateMu serializes migrations: one device transfer at a time.
	migrateMu sync.Mutex

	// listen opens a member's loopback listener, which serves direct dials
	// (routed sessions are handed off in process). Tests replace it.
	listen func() (net.Listener, error)

	// frontend state
	feAddr atomic.Value // string
	feWG   sync.WaitGroup

	// Live admin counters. The member registries are single-owner and
	// unmergeable while hot, so everything the admin endpoint serves live
	// is fleet-owned atomics; the full registry merge happens once, after
	// drain, in fixed member order.
	routed         atomic.Uint64
	refused        atomic.Uint64
	unknownTenants atomic.Uint64
	migrations     atomic.Uint64
	migrationBytes atomic.Uint64

	mergeOnce sync.Once
}

// New validates the config, computes the placement table and builds every
// member device (not yet serving).
func New(cfg Config) (*Fleet, error) {
	cfg.fillDefaults()
	if cfg.Devices < 1 || cfg.Devices > 256 {
		return nil, fmt.Errorf("fleet: devices must be in [1, 256], got %d", cfg.Devices)
	}
	if total := cfg.Devices * cfg.Spec.Tenants; total > 0xFFFF {
		return nil, fmt.Errorf("fleet: %d tenants exceed the 16-bit namespace ID space", total)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	table := &Table{routes: map[int]*Route{}}
	if !cfg.Standby {
		var err error
		table, err = NewTable(cfg.Devices, cfg.Spec.Tenants, cfg.Placement)
		if err != nil {
			return nil, err
		}
	}
	f := &Fleet{cfg: cfg, table: table, listen: listenLoopback}
	for i := 0; i < cfg.Devices; i++ {
		seed := sim.SplitSeed(cfg.Seed, uint64(i))
		reg := f.newMemberRegistry()
		bd, err := cfg.Spec.Build(seed, reg)
		if err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", i, err)
		}
		f.members = append(f.members, &Member{Index: i, Seed: seed, Reg: reg, BD: bd})
	}
	registerFleetObs(f, cfg.Obs)
	return f, nil
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// newMemberRegistry makes a fresh registry for one member device. When the
// root registry traces, members trace too (same ring capacity), so the
// merged registry carries every device's events.
func (f *Fleet) newMemberRegistry() *obs.Registry {
	if f.cfg.Obs.Tracing() {
		return obs.NewTracing(f.cfg.Obs.TraceCap())
	}
	return obs.NewRegistry()
}

// Table returns the fleet's routing table.
func (f *Fleet) Table() *Table { return f.table }

// Devices returns how many members the fleet currently holds, retired
// ones included.
func (f *Fleet) Devices() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Member returns member i (nil when out of range).
func (f *Fleet) Member(i int) *Member {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i < 0 || i >= len(f.members) {
		return nil
	}
	return f.members[i]
}

// Start brings every member's transport server up on its own loopback
// listener. ctx cancellation drains all members (like Shutdown).
func (f *Fleet) Start(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return errors.New("fleet: Start called twice")
	}
	f.started = true
	f.serveCtx = ctx
	for _, m := range f.members {
		if err := f.startMemberLocked(m); err != nil {
			return err
		}
	}
	return nil
}

// startMemberLocked starts (or restarts, after a migration abort) one
// member's server. Caller holds f.mu.
func (f *Fleet) startMemberLocked(m *Member) error {
	ln, err := f.listen()
	if err != nil {
		return fmt.Errorf("fleet: device %d listener: %w", m.Index, err)
	}
	tcfg := f.cfg.Transport
	if f.cfg.Spec.ConnFaultRate > 0 {
		tcfg.Faults = m.BD.Injector
	}
	m.srv = transport.NewServer(m.BD.Device, tcfg)
	m.addr = ln.Addr().String()
	m.done = make(chan struct{})
	srv, done := m.srv, m.done
	ctx := f.serveCtx
	go func() {
		err := srv.Serve(ctx, ln)
		if !errors.Is(err, transport.ErrServerClosed) {
			m.serveErr = err
		}
		close(done)
	}()
	return nil
}

// Shutdown drains every live member: inflight batches complete and their
// completions flush before the servers stop. Safe to call once.
func (f *Fleet) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	members := make([]*Member, len(f.members))
	copy(members, f.members)
	f.mu.Unlock()
	var firstErr error
	var wg sync.WaitGroup
	var errMu sync.Mutex
	for _, m := range members {
		if m.srv == nil {
			continue
		}
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			err := m.srv.Shutdown(ctx)
			<-m.done
			if err == nil {
				err = m.serveErr
			}
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(m)
	}
	wg.Wait()
	return firstErr
}

// MergedRegistry flushes every member registry and folds them — in fixed
// member-index order, retired members included — into the root registry,
// then returns it. Member order, not completion order, decides the fold,
// and every per-name combination is order-independent, so the merged
// output is byte-stable no matter which device drained first. Call only
// after Shutdown (the merge contract needs quiescent sources); repeated
// calls return the same registry without re-merging.
func (f *Fleet) MergedRegistry() *obs.Registry {
	f.mergeOnce.Do(func() {
		f.mu.Lock()
		members := make([]*Member, len(f.members))
		copy(members, f.members)
		f.mu.Unlock()
		for _, m := range members {
			m.Reg.Flush()
		}
		f.cfg.Obs.Flush() // projects the fleet's own counters
		for _, m := range members {
			f.cfg.Obs.Merge(m.Reg)
		}
	})
	return f.cfg.Obs
}

// Stats is the fleet's live counter block (admin endpoint surface).
type Stats struct {
	Devices        int    `json:"devices"`
	Retired        int    `json:"retired"`
	Tenants        int    `json:"tenants"`
	SessionsRouted uint64 `json:"sessions_routed"`
	Refused        uint64 `json:"sessions_refused"`
	UnknownTenants uint64 `json:"unknown_tenants"`
	Migrations     uint64 `json:"migrations"`
	MigrationBytes uint64 `json:"migration_bytes"`
}

// Stats snapshots the fleet-owned live counters. Safe while serving: it
// reads only fleet atomics, never the single-owner member registries.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	devices, retired := len(f.members), 0
	for _, m := range f.members {
		if m.retired {
			retired++
		}
	}
	f.mu.Unlock()
	return Stats{
		Devices:        devices,
		Retired:        retired,
		Tenants:        len(f.table.Tenants()),
		SessionsRouted: f.routed.Load(),
		Refused:        f.refused.Load(),
		UnknownTenants: f.unknownTenants.Load(),
		Migrations:     f.migrations.Load(),
		MigrationBytes: f.migrationBytes.Load(),
	}
}
