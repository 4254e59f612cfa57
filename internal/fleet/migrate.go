package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// MigrationReport describes one completed device migration.
type MigrationReport struct {
	// Src is the retired member; Dst the member now serving its tenants
	// (-1 for a cross-process migration, where the destination lives in
	// another instance).
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Target is the receiving instance's frontend address for a
	// cross-process migration ("" in-process).
	Target string `json:"target,omitempty"`
	// StateHash is the device state fingerprint, identical pre-transfer
	// and post-restore — the byte-identical-state guarantee.
	StateHash uint64 `json:"state_hash"`
	// Bytes is the checkpoint stream size.
	Bytes int `json:"bytes"`
	// Tenants are the fleet-wide tenant IDs that moved.
	Tenants []int `json:"tenants"`
}

// drainAndCheckpoint runs the first half of every migration: flip the
// source's routes to migrating (new sessions refused from here on), drain
// its server (inflight batches complete, completions flush), then
// checkpoint the quiesced device and fingerprint it.
func (f *Fleet) drainAndCheckpoint(ctx context.Context, src int) (*Member, []Route, []byte, uint64, error) {
	f.mu.Lock()
	if src < 0 || src >= len(f.members) {
		f.mu.Unlock()
		return nil, nil, nil, 0, fmt.Errorf("fleet: no device %d", src)
	}
	m := f.members[src]
	if m.retired {
		f.mu.Unlock()
		return nil, nil, nil, 0, fmt.Errorf("fleet: device %d already migrated away", src)
	}
	if m.srv == nil {
		f.mu.Unlock()
		return nil, nil, nil, 0, fmt.Errorf("fleet: device %d is not serving", src)
	}
	f.mu.Unlock()

	routes, err := f.table.BeginMigration(src)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if err := m.srv.Shutdown(ctx); err != nil {
		f.table.AbortMigration(src)
		return nil, nil, nil, 0, fmt.Errorf("fleet: draining device %d: %w", src, err)
	}
	<-m.done

	// The device is quiesced; this goroutine takes clock ownership for
	// the checkpoint (the drained sessions handed it off).
	hash := m.BD.Device.StateHash()
	var buf bytes.Buffer
	if err := m.BD.Device.Checkpoint(&buf); err != nil {
		f.restartSource(m)
		return nil, nil, nil, 0, fmt.Errorf("fleet: checkpointing device %d: %w", src, err)
	}
	return m, routes, buf.Bytes(), hash, nil
}

// restartSource aborts a migration: the source device still holds the
// authoritative state, so bring its server back (on a fresh listener) and
// reactivate its routes.
func (f *Fleet) restartSource(m *Member) {
	f.mu.Lock()
	err := f.startMemberLocked(m)
	f.mu.Unlock()
	if err == nil {
		f.table.AbortMigration(m.Index)
	}
	// If the restart itself failed the routes stay migrating — refused,
	// never misrouted — and the operator retries via the admin endpoint.
}

// Migrate moves device src's entire state to a freshly built member in
// this process: drain → checkpoint → restore into a device rebuilt from
// the same spec and seed → verify the state hash → re-route. Tenants see
// StatusShutdown refusals during the transfer and land on the new member
// when they retry. On any failure the source is restarted and its routes
// reactivated; the fleet never runs with the state half-moved.
func (f *Fleet) Migrate(ctx context.Context, src int) (*MigrationReport, error) {
	f.migrateMu.Lock()
	defer f.migrateMu.Unlock()
	m, routes, snap, hash, err := f.drainAndCheckpoint(ctx, src)
	if err != nil {
		return nil, err
	}

	reg := f.newMemberRegistry()
	bd, err := f.cfg.Spec.Build(m.Seed, reg)
	if err != nil {
		f.restartSource(m)
		return nil, fmt.Errorf("fleet: building migration target: %w", err)
	}
	if err := bd.Device.Restore(bytes.NewReader(snap)); err != nil {
		f.restartSource(m)
		return nil, fmt.Errorf("fleet: restoring device %d state: %w", src, err)
	}
	if got := bd.Device.StateHash(); got != hash {
		f.restartSource(m)
		return nil, fmt.Errorf("fleet: restored state hash %#x, want %#x", got, hash)
	}
	// Read the restored clock before the new member's sessions take it over.
	clockNow := uint64(bd.Device.Clock().Now())

	f.mu.Lock()
	dst := &Member{Index: len(f.members), Seed: m.Seed, Reg: reg, BD: bd}
	f.members = append(f.members, dst)
	if err := f.startMemberLocked(dst); err != nil {
		f.members = f.members[:len(f.members)-1]
		f.mu.Unlock()
		f.restartSource(m)
		return nil, err
	}
	m.retired = true
	f.mu.Unlock()
	f.table.CompleteMigration(src, dst.Index)

	f.migrations.Add(1)
	f.migrationBytes.Add(uint64(len(snap)))
	f.cfg.Obs.Emit(clockNow, EvMigrate, int64(src), int64(dst.Index), int64(len(snap)))
	return &MigrationReport{
		Src: src, Dst: dst.Index, StateHash: hash,
		Bytes: len(snap), Tenants: tenantsOf(routes),
	}, nil
}

// Transfer headers of the cross-process migration protocol (POST
// /fleet/receive; see docs/FLEET.md).
const (
	headerSeed      = "X-Fleet-Seed"
	headerStateHash = "X-Fleet-State-Hash"
	headerTenants   = "X-Fleet-Tenants"
)

// receiveReply is the receiver's JSON answer to /fleet/receive.
type receiveReply struct {
	StateHash uint64 `json:"state_hash"`
	Device    int    `json:"device"`
	Frontend  string `json:"frontend"`
}

// MigrateOut moves device src's state to another hammerd instance whose
// admin endpoint is at targetURL: drain → checkpoint → POST the snapshot
// (with seed, tenant routes and the expected state hash) → verify the
// receiver's hash → mark the routes moved. Clients of the moved tenants
// are refused with the receiving instance's frontend address. The
// receiver must run an identical device spec: the snapshot's config
// digest (which covers the spec and the seed) makes any mismatch a
// refusal, never a silent divergence.
func (f *Fleet) MigrateOut(ctx context.Context, src int, targetURL string, hc *http.Client) (*MigrationReport, error) {
	f.migrateMu.Lock()
	defer f.migrateMu.Unlock()
	if hc == nil {
		hc = http.DefaultClient
	}
	m, routes, snap, hash, err := f.drainAndCheckpoint(ctx, src)
	if err != nil {
		return nil, err
	}

	var tenants []string
	for _, r := range routes {
		tenants = append(tenants, fmt.Sprintf("%d=%d", r.Tenant, r.NSID))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(targetURL, "/")+"/fleet/receive", bytes.NewReader(snap))
	if err != nil {
		f.restartSource(m)
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(headerSeed, strconv.FormatUint(m.Seed, 10))
	req.Header.Set(headerStateHash, strconv.FormatUint(hash, 16))
	req.Header.Set(headerTenants, strings.Join(tenants, ","))
	resp, err := hc.Do(req)
	if err != nil {
		f.restartSource(m)
		return nil, fmt.Errorf("fleet: transfer to %s failed: %w", targetURL, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		f.restartSource(m)
		return nil, fmt.Errorf("fleet: receiver rejected transfer: %s: %s",
			resp.Status, strings.TrimSpace(string(body)))
	}
	var reply receiveReply
	if err := json.Unmarshal(body, &reply); err != nil {
		f.restartSource(m)
		return nil, fmt.Errorf("fleet: malformed receiver reply: %w", err)
	}
	if reply.StateHash != hash {
		// The receiver restored something else. It must discard its copy;
		// the source remains authoritative.
		f.restartSource(m)
		return nil, fmt.Errorf("fleet: receiver state hash %#x, want %#x", reply.StateHash, hash)
	}

	moved := reply.Frontend
	if moved == "" {
		moved = targetURL
	}
	f.mu.Lock()
	m.retired = true
	f.mu.Unlock()
	f.table.CompleteMove(src, moved)
	f.migrations.Add(1)
	f.migrationBytes.Add(uint64(len(snap)))
	f.cfg.Obs.Emit(uint64(m.BD.Device.Clock().Now()), EvMigrate,
		int64(src), -1, int64(len(snap)))
	return &MigrationReport{
		Src: src, Dst: -1, Target: moved, StateHash: hash,
		Bytes: len(snap), Tenants: tenantsOf(routes),
	}, nil
}

// Receive is the inbound half of MigrateOut: build a member from this
// fleet's spec and the sender's seed, restore the snapshot, verify the
// state hash, start serving and install the tenant routes. The fleet must
// have been Started (the new member needs the serve context). Routes are
// installed only once the member serves; a transfer that fails anywhere
// installs none, so its tenants are refused, never misrouted.
func (f *Fleet) Receive(seed uint64, wantHash uint64, routes []Route, snap io.Reader) (*MigrationReport, error) {
	f.migrateMu.Lock()
	defer f.migrateMu.Unlock()
	if len(routes) == 0 {
		return nil, errors.New("fleet: transfer names no tenants")
	}
	f.mu.Lock()
	started := f.started
	f.mu.Unlock()
	if !started {
		return nil, errors.New("fleet: cannot receive before Start")
	}
	// Refuse collisions before any work. migrateMu serializes every route
	// change, so AddRoutes below finds the same tenants free.
	for _, r := range routes {
		if _, err := f.table.Lookup(r.Tenant); err == nil {
			return nil, fmt.Errorf("fleet: tenant %d already placed here", r.Tenant)
		}
	}

	reg := f.newMemberRegistry()
	bd, err := f.cfg.Spec.Build(seed, reg)
	if err != nil {
		return nil, fmt.Errorf("fleet: building receive target: %w", err)
	}
	if err := bd.Device.Restore(snap); err != nil {
		return nil, fmt.Errorf("fleet: restoring transferred state: %w", err)
	}
	hash := bd.Device.StateHash()
	if hash != wantHash {
		return nil, fmt.Errorf("fleet: restored state hash %#x, want %#x", hash, wantHash)
	}
	clockNow := uint64(bd.Device.Clock().Now())

	f.mu.Lock()
	dst := &Member{Index: len(f.members), Seed: seed, Reg: reg, BD: bd}
	f.members = append(f.members, dst)
	if err := f.startMemberLocked(dst); err != nil {
		f.members = f.members[:len(f.members)-1]
		f.mu.Unlock()
		return nil, err
	}
	f.mu.Unlock()
	for i := range routes {
		routes[i].Device = dst.Index
	}
	if err := f.table.AddRoutes(routes); err != nil {
		return nil, err
	}
	f.migrations.Add(1)
	f.cfg.Obs.Emit(clockNow, EvMigrate, -1, int64(dst.Index), 0)
	return &MigrationReport{
		Src: -1, Dst: dst.Index, StateHash: hash, Tenants: tenantsOf(routes),
	}, nil
}

// parseTenantRoutes decodes the X-Fleet-Tenants header: "tenant=nsid"
// pairs, comma-separated.
func parseTenantRoutes(s string) ([]Route, error) {
	if s == "" {
		return nil, nil
	}
	var routes []Route
	for _, pair := range strings.Split(s, ",") {
		t, n, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("fleet: malformed tenant route %q", pair)
		}
		tenant, err := strconv.Atoi(t)
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %q: %w", t, err)
		}
		nsid, err := strconv.Atoi(n)
		if err != nil {
			return nil, fmt.Errorf("fleet: namespace %q: %w", n, err)
		}
		routes = append(routes, Route{Tenant: tenant, NSID: nsid})
	}
	return routes, nil
}

func tenantsOf(routes []Route) []int {
	out := make([]int, len(routes))
	for i, r := range routes {
		out[i] = r.Tenant
	}
	return out
}
