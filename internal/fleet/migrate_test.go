package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/transport"
)

// dialTenant dials the frontend with retries across migration refusals:
// StatusShutdown refusals and connection errors back off and retry, which
// is exactly what a real tenant does while its device is in transfer.
func dialTenant(ctx context.Context, addr string, tenant int) (*transport.Client, error) {
	var lastErr error
	for attempt := 0; attempt < 400; attempt++ {
		c, err := transport.Dial(ctx, addr, transport.ClientConfig{NSID: tenant, Window: 8})
		if err == nil {
			return c, nil
		}
		lastErr = err
		var remote *transport.RemoteError
		if errors.As(err, &remote) && remote.Status != transport.StatusShutdown {
			return nil, err // invalid, not transient
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil, fmt.Errorf("fleet test: dial gave up: %w", lastErr)
}

// TestMigrationPreservesStateAndHash: migrate a loaded device in-process
// and require (a) the report's state hash (verified pre-transfer vs
// post-restore inside Migrate), (b) data written before the migration
// readable after it, (c) routes re-pointed at the new member.
func TestMigrationPreservesStateAndHash(t *testing.T) {
	f, addr, _ := startFleet(t, Config{
		Devices:   2,
		Spec:      testSpec(2),
		Seed:      21,
		Placement: Placement{Policy: PolicySpread},
	})

	// Tenant 1 lives on device 0; write recognizable blocks.
	c, err := transport.Dial(context.Background(), addr, transport.ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, c.BlockBytes())
	for seq := uint64(0); seq < 8; seq++ {
		payloadFor(buf, 1, seq)
		if err := c.Write(context.Background(), ftl.LBA(seq), buf); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	report, err := f.Migrate(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if report.Src != 0 || report.Dst != 2 {
		t.Errorf("report %+v, want src 0 dst 2", report)
	}
	if len(report.Tenants) != 2 || report.Tenants[0] != 1 || report.Tenants[1] != 3 {
		t.Errorf("migrated tenants %v, want [1 3]", report.Tenants)
	}
	if report.StateHash == 0 || report.Bytes == 0 {
		t.Errorf("report carries no state fingerprint: %+v", report)
	}
	// Independent check: the new member's device hashes to the reported
	// value right up until it serves new commands — but it is already
	// serving, so instead verify the route flip and the data.
	r, err := f.Table().Lookup(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Device != 2 || r.State != RouteActive {
		t.Errorf("tenant 1 route after migration: %+v", r)
	}

	c2, err := dialTenant(context.Background(), addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got := make([]byte, c2.BlockBytes())
	for seq := uint64(0); seq < 8; seq++ {
		if _, err := c2.Read(context.Background(), ftl.LBA(seq), got); err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(got) != 1 || binary.LittleEndian.Uint64(got[8:]) != seq {
			t.Fatalf("block %d corrupted across migration", seq)
		}
	}
}

// TestMigrationUnderLoadLosesNothing is the cutover exactness proof, run
// under -race in CI: tenants hammer writes through the frontend while
// their device migrates; sessions break, clients resubmit unacknowledged
// batches on fresh sessions; afterwards the device-side per-namespace op
// counters (carried through the checkpoint) must equal the client-side
// acknowledged counts exactly — no command lost, none duplicated.
func TestMigrationUnderLoadLosesNothing(t *testing.T) {
	const (
		devices = 2
		slots   = 2
		opsPer  = 300
		batch   = 4
	)
	f, addr, stop := startFleet(t, Config{
		Devices:   devices,
		Spec:      testSpec(slots),
		Seed:      5,
		Placement: Placement{Policy: PolicySpread},
		Transport: transport.Config{Window: 16},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	total := devices * slots
	acked := make([]uint64, total+1) // [tenant] = writes acknowledged
	var started, wg sync.WaitGroup
	errs := make([]error, total+1)
	started.Add(total)
	for tenant := 1; tenant <= total; tenant++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			var startedOnce sync.Once
			markStarted := func() { startedOnce.Do(started.Done) }
			defer markStarted()
			errs[tenant] = func() error {
				c, err := dialTenant(ctx, addr, tenant)
				if err != nil {
					return err
				}
				defer func() { c.Close() }()
				buf := make([]byte, c.BlockBytes())
				seq := uint64(0)
				for seq < opsPer {
					// Submit one batch; on session loss, reconnect and
					// resubmit the same unacknowledged commands.
					n := batch
					if rem := opsPer - seq; rem < uint64(n) {
						n = int(rem)
					}
					for j := 0; j < n; j++ {
						payloadFor(buf, tenant, seq+uint64(j))
						if err := c.Submit(nvme.Command{
							Op: nvme.OpWrite, LBA: ftl.LBA((seq + uint64(j)) % c.NumLBAs()),
							Buf: buf, Tag: seq + uint64(j),
						}); err != nil {
							return err
						}
					}
					markStarted()
					if _, err := c.Ring(ctx); err != nil {
						// The batch is unacknowledged: either the server
						// never executed it (drain cut the read loop) or
						// the link died first. Graceful drain flushed every
						// executed batch's completions before EOF, so an
						// error here means NOT executed — resubmit it all.
						c.Close()
						c, err = dialTenant(ctx, addr, tenant)
						if err != nil {
							return err
						}
						continue
					}
					c.Completions()
					acked[tenant] += uint64(n)
					seq += uint64(n)
				}
				return nil
			}()
		}(tenant)
	}

	// Fire the migration while the load is demonstrably in flight.
	started.Wait()
	report, err := f.Migrate(ctx, 0)
	if err != nil {
		t.Fatalf("Migrate under load: %v", err)
	}
	wg.Wait()
	for tenant := 1; tenant <= total; tenant++ {
		if errs[tenant] != nil {
			t.Fatalf("tenant %d: %v", tenant, errs[tenant])
		}
	}
	stop()

	if report.StateHash == 0 {
		t.Error("migration reported no state hash")
	}
	for tenant := 1; tenant <= total; tenant++ {
		r, err := f.Table().Lookup(tenant)
		if err != nil {
			t.Fatal(err)
		}
		ns, ok := f.Member(r.Device).BD.Device.NamespaceByID(r.NSID)
		if !ok {
			t.Fatalf("tenant %d: no namespace %d on device %d", tenant, r.NSID, r.Device)
		}
		if got := ns.Stats().Writes; got != acked[tenant] {
			t.Errorf("tenant %d: device executed %d writes, clients were acknowledged %d — "+
				"commands %s across the cutover", tenant, got, acked[tenant],
				map[bool]string{true: "duplicated", false: "lost"}[got > acked[tenant]])
		}
	}
	if migrated := f.Stats().Migrations; migrated != 1 {
		t.Errorf("migrations counter = %d, want 1", migrated)
	}
}

// TestSessionDuringMigrationNeverMisrouted floods the frontend with
// handshakes for a migrating tenant: every attempt must either be refused
// with StatusShutdown or land on a device that truly owns the tenant's
// state (proven by reading back the tenant's marker block) — never on a
// stale or half-restored device.
func TestSessionDuringMigrationNeverMisrouted(t *testing.T) {
	f, addr, _ := startFleet(t, Config{
		Devices:   2,
		Spec:      testSpec(1),
		Seed:      13,
		Placement: Placement{Policy: PolicySpread},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Tenant 1 (device 0) writes a marker block.
	c, err := transport.Dial(ctx, addr, transport.ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	marker := make([]byte, c.BlockBytes())
	payloadFor(marker, 1, 0xdead)
	if err := c.Write(ctx, 0, marker); err != nil {
		t.Fatal(err)
	}
	c.Close()

	stopDialing := make(chan struct{})
	var refused, served atomic.Uint64
	var dialErr atomic.Value
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, len(marker))
			for {
				select {
				case <-stopDialing:
					return
				default:
				}
				c, err := transport.Dial(ctx, addr, transport.ClientConfig{NSID: 1})
				if err != nil {
					var remote *transport.RemoteError
					if errors.As(err, &remote) && remote.Status == transport.StatusShutdown {
						refused.Add(1) // migration window: refused, not misrouted
						continue
					}
					dialErr.Store(fmt.Errorf("unexpected dial failure: %w", err))
					return
				}
				if _, err := c.Read(ctx, 0, buf); err == nil {
					if binary.LittleEndian.Uint64(buf) != 1 {
						dialErr.Store(errors.New("session served by a device without tenant 1's state"))
						c.Close()
						return
					}
					served.Add(1)
				}
				c.Close()
			}
		}()
	}

	if _, err := f.Migrate(ctx, 0); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	// Let the dialers observe the post-migration world, then stop them.
	time.Sleep(50 * time.Millisecond)
	close(stopDialing)
	wg.Wait()
	if err := dialErr.Load(); err != nil {
		t.Fatal(err)
	}
	if served.Load() == 0 {
		t.Error("no session was ever served")
	}
	t.Logf("served %d sessions, refused %d during the migration window", served.Load(), refused.Load())
}

// TestCrossProcessMigration moves a device between two fleets over the
// admin HTTP protocol and verifies the byte-identical-state guarantee and
// the moved-route refusal pointing clients at the receiver.
func TestCrossProcessMigration(t *testing.T) {
	spec := testSpec(2)
	src, srcAddr, _ := startFleet(t, Config{
		Devices: 1, Spec: spec, Seed: 17, Placement: Placement{Policy: PolicySpread},
	})
	// The receiver is a standby instance running the identical spec (the
	// snapshot's config digest enforces that) with no tenants of its own:
	// tenant IDs are instance-wide, so a receiver with its own placement
	// would collide with the transferred ones.
	dst, dstFE, _ := startFleet(t, Config{Devices: 1, Spec: spec, Seed: 99, Standby: true})
	admin := httptest.NewServer(dst.AdminHandler())
	defer admin.Close()

	// Load the source device.
	c, err := transport.Dial(context.Background(), srcAddr, transport.ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, c.BlockBytes())
	payloadFor(buf, 1, 42)
	if err := c.Write(context.Background(), 3, buf); err != nil {
		t.Fatal(err)
	}
	c.Close()

	report, err := src.MigrateOut(context.Background(), 0, admin.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Dst != -1 || report.Target != dstFE {
		t.Errorf("report %+v, want dst -1 target %s", report, dstFE)
	}

	// The source now refuses tenant 1 with a pointer at the receiver.
	_, err = transport.Dial(context.Background(), srcAddr, transport.ClientConfig{NSID: 1})
	var remote *transport.RemoteError
	if !errors.As(err, &remote) || remote.Status != transport.StatusShutdown ||
		!strings.Contains(remote.Msg, dstFE) {
		t.Fatalf("moved tenant dial: %v, want StatusShutdown naming %s", err, dstFE)
	}

	// The receiver serves the transferred tenant's data through its own
	// frontend, same tenant ID, same device-local namespace.
	if got := dst.Devices(); got != 2 {
		t.Errorf("receiver has %d members, want 2 (standby + received)", got)
	}
	got := make([]byte, len(buf))
	c2, err := transport.Dial(context.Background(), dstFE, transport.ClientConfig{NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Read(context.Background(), 3, got); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(got) != 1 || binary.LittleEndian.Uint64(got[8:]) != 42 {
		t.Error("transferred block corrupted")
	}
}

// TestReceiveRejectsBadRoutes: /fleet/receive answers 400, and builds and
// routes nothing, for a transfer that names no tenant, repeats a tenant,
// names a tenant outside [1, 65535] or a namespace the spec's 2-tenant
// devices do not have; a well-formed transfer of the same snapshot then
// lands.
func TestReceiveRejectsBadRoutes(t *testing.T) {
	spec := testSpec(2)
	const seed = 17
	bd, err := spec.Build(seed, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	hash := bd.Device.StateHash()
	var snap bytes.Buffer
	if err := bd.Device.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	dst, _, _ := startFleet(t, Config{Devices: 1, Spec: spec, Seed: 99, Standby: true})
	admin := httptest.NewServer(dst.AdminHandler())
	defer admin.Close()
	post := func(tenants string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, admin.URL+"/fleet/receive", bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(headerSeed, strconv.FormatUint(seed, 10))
		req.Header.Set(headerStateHash, strconv.FormatUint(hash, 16))
		req.Header.Set(headerTenants, tenants)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, tenants := range []string{"", "1=1,1=2,7=99", "1=1,1=2", "7=99", "1=0", "0=1", "65536=1"} {
		if code := post(tenants); code != http.StatusBadRequest {
			t.Errorf("tenants %q: status %d, want %d", tenants, code, http.StatusBadRequest)
		}
	}
	if got := dst.Table().Tenants(); len(got) != 0 {
		t.Errorf("rejected transfers installed routes for tenants %v", got)
	}
	if got := dst.Devices(); got != 1 {
		t.Errorf("receiver has %d members after rejected transfers, want 1", got)
	}

	if code := post("1=1,7=2"); code != http.StatusOK {
		t.Fatalf("well-formed transfer: status %d, want %d", code, http.StatusOK)
	}
	for tenant, nsid := range map[int]int{1: 1, 7: 2} {
		if r, err := dst.Table().Lookup(tenant); err != nil || r.NSID != nsid || r.Device != 1 {
			t.Errorf("tenant %d: %+v, %v; want namespace %d on device 1", tenant, r, err, nsid)
		}
	}
}
