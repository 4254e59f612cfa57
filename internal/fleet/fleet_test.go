package fleet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ftlhammer/internal/dram"
	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nand"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/transport"
)

// testSpec is a fast small-device spec: tiny flash, small invulnerable
// DRAM, so fleets build and checkpoint in milliseconds.
func testSpec(tenants int) DeviceSpec {
	geom := nand.TinyGeometry()
	return DeviceSpec{
		Tenants: tenants,
		DRAM: &dram.Config{
			Geometry: dram.SmallGeometry(),
			Profile:  dram.InvulnerableProfile(),
		},
		Flash: &geom,
	}
}

// startFleet builds and starts a fleet plus its frontend, returning the
// fleet, the frontend address, and a stop function that drains everything.
func startFleet(t *testing.T, cfg Config) (*Fleet, string, func()) {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := serveFleet(t, f)
	return f, addr, stop
}

// serveFleet starts a built fleet and its frontend, returning the
// frontend address and a stop function that drains everything.
func serveFleet(t *testing.T, f *Fleet) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	if err := f.Start(ctx); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	feErr := make(chan error, 1)
	go func() { feErr <- f.ServeFrontend(ctx, ln) }()
	var once sync.Once
	stopFn := func() {
		once.Do(func() {
			sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer scancel()
			if err := f.Shutdown(sctx); err != nil {
				t.Errorf("fleet Shutdown: %v", err)
			}
			cancel()
			if err := <-feErr; !errors.Is(err, ErrFrontendClosed) {
				t.Errorf("ServeFrontend returned %v, want ErrFrontendClosed", err)
			}
		})
	}
	t.Cleanup(stopFn)
	return ln.Addr().String(), stopFn
}

// payloadFor stamps a block with the tenant and sequence so reads prove
// which tenant's write they observe.
func payloadFor(buf []byte, tenant int, seq uint64) {
	for i := range buf {
		buf[i] = byte(tenant)
	}
	binary.LittleEndian.PutUint64(buf, uint64(tenant))
	binary.LittleEndian.PutUint64(buf[8:], seq)
}

// TestFleetServesTenantsThroughFrontend drives every tenant of a 4-device
// fleet concurrently through one frontend and verifies each session reads
// back exactly its own writes — cross-tenant and cross-device isolation
// through the frontend.
func TestFleetServesTenantsThroughFrontend(t *testing.T) {
	const devices, slots = 4, 2
	f, addr, stop := startFleet(t, Config{
		Devices:   devices,
		Spec:      testSpec(slots),
		Seed:      7,
		Placement: Placement{Policy: PolicySpread},
	})

	total := devices * slots
	var wg sync.WaitGroup
	errs := make([]error, total)
	for tenant := 1; tenant <= total; tenant++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			errs[tenant-1] = func() error {
				c, err := transport.Dial(context.Background(), addr, transport.ClientConfig{NSID: tenant})
				if err != nil {
					return err
				}
				defer c.Close()
				buf := make([]byte, c.BlockBytes())
				for seq := uint64(0); seq < 16; seq++ {
					lba := ftl.LBA(seq % c.NumLBAs())
					payloadFor(buf, tenant, seq)
					if err := c.Write(context.Background(), lba, buf); err != nil {
						return fmt.Errorf("tenant %d write %d: %w", tenant, seq, err)
					}
				}
				got := make([]byte, c.BlockBytes())
				for seq := uint64(0); seq < 16; seq++ {
					lba := ftl.LBA(seq % c.NumLBAs())
					if _, err := c.Read(context.Background(), lba, got); err != nil {
						return fmt.Errorf("tenant %d read %d: %w", tenant, seq, err)
					}
					if binary.LittleEndian.Uint64(got) != uint64(tenant) {
						return fmt.Errorf("tenant %d read back tenant %d's block",
							tenant, binary.LittleEndian.Uint64(got))
					}
				}
				return nil
			}()
		}(tenant)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("tenant %d: %v", i+1, err)
		}
	}

	stop()
	// Each tenant's ops landed on exactly the device the table placed it
	// on: 16 writes + 16 reads per device-local namespace.
	for tenant := 1; tenant <= total; tenant++ {
		r, err := f.Table().Lookup(tenant)
		if err != nil {
			t.Fatal(err)
		}
		ns, ok := f.Member(r.Device).BD.Device.NamespaceByID(r.NSID)
		if !ok {
			t.Fatalf("tenant %d: no namespace %d on device %d", tenant, r.NSID, r.Device)
		}
		st := ns.Stats()
		if st.Writes != 16 || st.Reads != 16 {
			t.Errorf("tenant %d (device %d ns %d): %d writes %d reads, want 16/16",
				tenant, r.Device, r.NSID, st.Writes, st.Reads)
		}
	}
	if got := f.Stats().SessionsRouted; got != uint64(total) {
		t.Errorf("sessions routed = %d, want %d", got, total)
	}
}

// TestFleetRefusesUnknownTenant: a hello naming a namespace beyond the
// placement is refused with StatusInvalid, never connected anywhere.
func TestFleetRefusesUnknownTenant(t *testing.T) {
	f, addr, _ := startFleet(t, Config{
		Devices:   2,
		Spec:      testSpec(2),
		Seed:      7,
		Placement: Placement{Policy: PolicySpread},
	})
	_, err := transport.Dial(context.Background(), addr, transport.ClientConfig{NSID: 99})
	var remote *transport.RemoteError
	if !errors.As(err, &remote) || remote.Status != transport.StatusInvalid {
		t.Fatalf("unknown tenant dial: %v, want RemoteError{StatusInvalid}", err)
	}
	if !strings.Contains(remote.Msg, "unknown tenant") {
		t.Errorf("refusal message %q does not name the cause", remote.Msg)
	}
	if f.Stats().UnknownTenants != 1 {
		t.Errorf("unknown tenant counter = %d, want 1", f.Stats().UnknownTenants)
	}
}

// runDeterministicLoad drives every tenant sequentially (one session at a
// time) so per-device command streams are identical across runs.
func runDeterministicLoad(t *testing.T, f *Fleet, addr string) {
	t.Helper()
	for _, tenant := range f.Table().Tenants() {
		c, err := transport.Dial(context.Background(), addr, transport.ClientConfig{NSID: tenant})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, c.BlockBytes())
		for seq := uint64(0); seq < uint64(4+tenant); seq++ {
			payloadFor(buf, tenant, seq)
			if err := c.Write(context.Background(), ftl.LBA(seq), buf); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
}

// TestMergedRegistryStableAcrossCompletionOrder runs the identical
// deterministic workload on two fleets, drains their members in opposite
// orders, and requires byte-identical merged metric snapshots: the merge
// folds in fixed member order, not completion order.
func TestMergedRegistryStableAcrossCompletionOrder(t *testing.T) {
	drainOrders := [][]int{{0, 1, 2}, {2, 0, 1}}
	var dumps []string
	for _, order := range drainOrders {
		f, addr, _ := startFleet(t, Config{
			Devices:   3,
			Spec:      testSpec(2),
			Seed:      11,
			Placement: Placement{Policy: PolicyPack},
		})
		runDeterministicLoad(t, f, addr)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		for _, i := range order {
			m := f.Member(i)
			if err := m.srv.Shutdown(ctx); err != nil {
				t.Fatalf("drain device %d: %v", i, err)
			}
			<-m.done
		}
		cancel()
		var sb strings.Builder
		if err := f.MergedRegistry().Snapshot(false).WriteTable(&sb); err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, sb.String())
	}
	if dumps[0] != dumps[1] {
		t.Errorf("merged metrics differ with drain order:\n--- order %v ---\n%s\n--- order %v ---\n%s",
			drainOrders[0], dumps[0], drainOrders[1], dumps[1])
	}
	if !strings.Contains(dumps[0], "transport_commands_total") ||
		!strings.Contains(dumps[0], "fleet_sessions_routed_total") {
		t.Errorf("merged dump lacks expected series:\n%s", dumps[0])
	}
}

// TestSingleDeviceFleetMatchesServerBehavior: a 1-device fleet is
// protocol-compatible with dialing the member server directly.
func TestSingleDeviceFleetMatchesServerBehavior(t *testing.T) {
	f, addr, _ := startFleet(t, Config{Spec: testSpec(2), Seed: 3})
	c, err := transport.Dial(context.Background(), addr, transport.ClientConfig{NSID: 2, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The granted window is the 8 asked for: 8 submissions fit, a ninth
	// does not.
	for i := 0; i < 8; i++ {
		if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: ftl.LBA(i)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := c.Submit(nvme.Command{Op: nvme.OpTrim, LBA: 8}); !errors.Is(err, nvme.ErrQueueFull) {
		t.Errorf("ninth submit: %v, want nvme.ErrQueueFull", err)
	}
	if _, err := c.Ring(context.Background()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, c.BlockBytes())
	payloadFor(buf, 2, 0)
	if err := c.Write(context.Background(), 0, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, c.BlockBytes())
	if _, err := c.Read(context.Background(), 0, got); err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(got) != 2 {
		t.Error("single-device fleet read back wrong block")
	}
	if f.Devices() != 1 {
		t.Errorf("Devices() = %d, want 1", f.Devices())
	}

	var _ *nvme.Device = f.Member(0).BD.Device // the member is a plain device
}
