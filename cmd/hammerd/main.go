// Command hammerd serves emulated multi-tenant NVMe SSDs over TCP using
// the internal/transport protocol. With -devices 1 (the default) one
// process owns one simulated device (DRAM, NAND, FTL, NVMe front end) and
// remote tenants connect with cmd/hammerload or transport.Dial, each
// session bound to its own namespace. With -devices N the process hosts a
// fleet: N independent device shards behind one routing frontend, tenants
// placed across them by -placement, with live migration driven through
// the -admin HTTP endpoint (see docs/FLEET.md).
//
// Example:
//
//	hammerd -listen 127.0.0.1:7701 -profile weak -tenants 4 -amplify 5
//	hammerd -listen 127.0.0.1:7701 -fault-rate 0.001 -conn-fault-rate 0.0001
//	hammerd -listen 127.0.0.1:7701 -metrics table -trace served.jsonl
//	hammerd -listen 127.0.0.1:7701 -record cmds.jsonl
//	hammerd -listen 127.0.0.1:7701 -devices 4 -placement spread -admin 127.0.0.1:7702
//	hammerd -listen 127.0.0.1:7801 -standby -admin 127.0.0.1:7802
//
// -record captures every admitted command (tagged with its session) as a
// replay trace; cmd/ftlreplay re-executes such traces deterministically.
// Recording is single-device only: a fleet's command streams belong to N
// independent devices and cannot replay into one.
//
// SIGINT/SIGTERM drain gracefully: no new sessions, inflight batches
// complete, completions flush, then the process reports per-namespace
// statistics (plus metrics/trace/record output when requested) and exits.
// In fleet mode the exit metrics are the merged registry — every member
// folded in fixed device order, byte-stable regardless of which device
// drained first. Any failure while writing that exit report — including a
// broken stdout — makes the process exit non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ftlhammer/internal/faults"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/obs"
	"ftlhammer/internal/replay"
	"ftlhammer/internal/transport"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// errWriter latches the first write error so every fmt.Fprintf in the
// exit report doesn't need individual checking; run inspects the latch
// before deciding the exit code.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, err
}

// run is main with its dependencies injected, returning the process exit
// code (0 ok, 1 runtime or output failure, 2 flag errors).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hammerd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen        = fs.String("listen", "127.0.0.1:7701", "TCP listen address")
		profile       = fs.String("profile", "weak", "DRAM profile: testbed | weak | invulnerable")
		seed          = fs.Uint64("seed", 0xBEEF, "simulation seed")
		tenants       = fs.Int("tenants", 4, "number of equal namespaces carved from each device")
		amplify       = fs.Int("amplify", 1, "firmware hammers per I/O (paper testbed: 5)")
		window        = fs.Int("window", 64, "max commands per session batch (a session holds one batch at a time)")
		maxSessions   = fs.Int("max-sessions", 256, "max concurrently open sessions per device")
		faultRate     = fs.Float64("fault-rate", 0, "inject device faults at this per-op probability (standard mix, see docs/FAULTS.md)")
		connFaultRate = fs.Float64("conn-fault-rate", 0, "inject connection resets at this per-batch probability")
		robust        = fs.Bool("robust", false, "enable the NVMe retry/timeout/degradation policy (implied by -fault-rate)")
		metrics       = fs.String("metrics", "", "exit-time metric dump: 'table' or 'json'")
		trace         = fs.String("trace", "", "write the event trace to this JSONL file on exit")
		record        = fs.String("record", "", "record every admitted command to this replay-trace JSONL file (single-device only)")
		devices       = fs.Int("devices", 1, "number of device shards in the fleet")
		placement     = fs.String("placement", "spread", "tenant placement policy: spread | pack | pinned")
		pin           = fs.String("pin", "", "pinned placement: 'tenant=device' pairs, comma-separated")
		admin         = fs.String("admin", "", "fleet admin HTTP listen address (status, metrics, migration)")
		standby       = fs.Bool("standby", false, "start with no tenants placed; routes arrive via cross-process migration")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hammerd:", err)
		return 1
	}
	reg, err := obs.FlagRegistry(*metrics, *trace)
	if err != nil {
		return fail(err)
	}

	spec := fleet.DeviceSpec{
		Profile:       *profile,
		Tenants:       *tenants,
		Amplify:       *amplify,
		FaultRate:     *faultRate,
		ConnFaultRate: *connFaultRate,
		Robust:        *robust,
	}
	if err := spec.Validate(); err != nil {
		return fail(err)
	}

	// Fleet mode is any shape the plain single-device server can't take:
	// more than one device, an admin surface, or a standby receiver.
	if *devices != 1 || *admin != "" || *standby {
		if *record != "" {
			return fail(errors.New("-record is single-device only (a fleet's streams belong to N independent devices)"))
		}
		pol, err := fleet.ParsePolicy(*placement)
		if err != nil {
			return fail(err)
		}
		pins, err := fleet.ParsePins(*pin)
		if err != nil {
			return fail(err)
		}
		return runFleet(ctx, fleet.Config{
			Devices:   *devices,
			Placement: fleet.Placement{Policy: pol, Pins: pins},
			Spec:      spec,
			Seed:      *seed,
			Standby:   *standby,
			Transport: transport.Config{Window: *window, MaxSessions: *maxSessions},
			Obs:       reg,
		}, *listen, *admin, *metrics, *trace, stdout, stderr)
	}

	// Single-device path: the device is built from the same spec the fleet
	// uses, but under the raw seed (not a split), so seeds recorded by
	// earlier versions replay identically.
	bd, err := spec.Build(*seed, reg)
	if err != nil {
		return fail(err)
	}
	dev, inj := bd.Device, bd.Injector

	var recFile *os.File
	var rec *replay.Recorder
	if *record != "" {
		recFile, err = os.Create(*record)
		if err != nil {
			return fail(err)
		}
		rec = replay.NewRecorder(recFile)
		rec.Attach(dev)
	}

	srv := transport.NewServer(dev, transport.Config{
		Window:      *window,
		MaxSessions: *maxSessions,
		Faults:      inj,
	})
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fail(err)
	}
	out := &errWriter{w: stdout}
	id := dev.Identify()
	fmt.Fprintf(out, "hammerd: serving %s (%.1f GiB, %d namespaces of %d LBAs, profile %s) on %s\n",
		id.Model, float64(id.Capacity)/(1<<30), *tenants, bd.PerNS, bd.ProfileName, ln.Addr())

	if err := srv.Serve(ctx, ln); err != nil && !errors.Is(err, transport.ErrServerClosed) {
		return fail(err)
	}
	fmt.Fprintln(out, "hammerd: drained")

	for _, ns := range dev.Namespaces() {
		st := ns.Stats()
		if st.Reads+st.Writes+st.Trims == 0 {
			continue
		}
		fmt.Fprintf(out, "ns %d: reads=%d writes=%d trims=%d throttled=%d\n",
			ns.ID, st.Reads, st.Writes, st.Trims, st.Throttled)
	}
	ds := dev.DRAM().Stats()
	fmt.Fprintf(out, "dram: activations=%d rowHits=%d flips=%d\n", ds.Activations, ds.RowHits, ds.Flips)
	if n := inj.InjectedTotal(); n > 0 {
		fmt.Fprintf(out, "faults: %d injected (%d conn resets)\n", n, inj.Injected(faults.KindConnReset))
	}

	if rec != nil {
		dev.SetRecorder(nil)
		if err := rec.Flush(); err != nil {
			return fail(fmt.Errorf("recording %s: %w", *record, err))
		}
		if err := recFile.Close(); err != nil {
			return fail(fmt.Errorf("recording %s: %w", *record, err))
		}
		fmt.Fprintf(out, "record: %d commands written to %s\n", rec.Count(), *record)
	}
	if err := obs.DumpExit(out, reg, *metrics, *trace); err != nil {
		return fail(err)
	}
	// A broken stdout must not look like a clean exit: the dump above is
	// the run's product when metrics/trace/record are requested.
	if out.err != nil {
		return fail(fmt.Errorf("writing exit report: %w", out.err))
	}
	return 0
}

// runFleet hosts a device fleet: members on loopback listeners, the
// routing frontend on the public address, and (optionally) the admin HTTP
// surface. It blocks until ctx cancels, then drains every member and
// writes the merged exit report.
func runFleet(ctx context.Context, cfg fleet.Config, listen, admin, metrics, trace string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hammerd:", err)
		return 1
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return fail(err)
	}
	if err := f.Start(ctx); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fail(err)
	}

	var adminSrv *http.Server
	if admin != "" {
		aln, err := net.Listen("tcp", admin)
		if err != nil {
			return fail(fmt.Errorf("admin listener: %w", err))
		}
		adminSrv = &http.Server{Handler: f.AdminHandler()}
		go adminSrv.Serve(aln)
		fmt.Fprintf(stdout, "hammerd: fleet admin on %s\n", aln.Addr())
	}

	out := &errWriter{w: stdout}
	mode := fmt.Sprintf("%d tenants, %s placement", f.Devices()*cfg.Spec.Tenants, cfg.Placement.Policy)
	if cfg.Standby {
		mode = "standby, awaiting migrations"
	}
	fmt.Fprintf(out, "hammerd: serving fleet of %d devices (%d namespaces each, profile %s; %s) on %s\n",
		f.Devices(), cfg.Spec.Tenants, f.Member(0).BD.ProfileName, mode, ln.Addr())

	// The frontend owns the foreground; ctx cancellation closes it, then
	// the members drain (inflight batches complete, completions flush).
	if err := f.ServeFrontend(ctx, ln); err != nil && !errors.Is(err, fleet.ErrFrontendClosed) {
		return fail(err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = f.Shutdown(sctx)
	scancel()
	if err != nil {
		return fail(fmt.Errorf("draining fleet: %w", err))
	}
	if adminSrv != nil {
		adminSrv.Close()
	}
	fmt.Fprintln(out, "hammerd: drained")

	// Exit report: per-device per-namespace stats (retired members
	// included — they served commands before migrating away), the fleet's
	// own routing counters, then the merged metrics.
	var faultTotal, connResets uint64
	for i := 0; i < f.Devices(); i++ {
		m := f.Member(i)
		suffix := ""
		if m.Retired() {
			suffix = " (migrated away)"
		}
		for _, ns := range m.BD.Device.Namespaces() {
			st := ns.Stats()
			if st.Reads+st.Writes+st.Trims == 0 {
				continue
			}
			fmt.Fprintf(out, "dev %d ns %d%s: reads=%d writes=%d trims=%d throttled=%d\n",
				i, ns.ID, suffix, st.Reads, st.Writes, st.Trims, st.Throttled)
		}
		faultTotal += m.BD.Injector.InjectedTotal()
		connResets += m.BD.Injector.Injected(faults.KindConnReset)
	}
	st := f.Stats()
	fmt.Fprintf(out, "fleet: routed=%d refused=%d unknown=%d migrations=%d (%d bytes moved)\n",
		st.SessionsRouted, st.Refused, st.UnknownTenants, st.Migrations, st.MigrationBytes)
	if faultTotal > 0 {
		fmt.Fprintf(out, "faults: %d injected (%d conn resets)\n", faultTotal, connResets)
	}
	if cfg.Obs != nil {
		if err := obs.DumpExit(out, f.MergedRegistry(), metrics, trace); err != nil {
			return fail(err)
		}
	}
	if out.err != nil {
		return fail(fmt.Errorf("writing exit report: %w", out.err))
	}
	return 0
}
