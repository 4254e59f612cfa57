// Command hammerload is the closed-loop multi-tenant load generator for
// cmd/hammerd: it opens many concurrent transport sessions against a
// served device (or fleet frontend), drives batched command streams
// through them, and reports batch round-trip latency percentiles and
// goodput.
//
// Patterns:
//
//   - uniform: random LBAs, read/write mixed by -read-frac
//   - hammer:  the paper's aggressor pattern — each session trims a small
//     aggressor set once, then replays reads of those trimmed LBAs
//     (minimal-cost L2P activations, §4.1) over the wire
//   - seq:     sequential reads across the namespace
//   - verify:  write tenant-tagged blocks, read each back, and count
//     corruptions — any mapped read whose payload does not carry this
//     tenant's tag and the block's own LBA
//   - kv:      the KV-store victim's record workload (docs/VICTIMS.md) —
//     append a CRC-framed record block, read it straight back, and count
//     framing failures: lost keys (unmapped), misdirected keys (key echo
//     mismatch) and corrupt records (bad magic/CRC) all count as corrupt
//   - churn:   the GC-interaction victim's pressure workload — hash-random
//     overwrites of a window at the top of the namespace, depleting the
//     free pool so device garbage collection runs under load
//
// -aggressor-tenants pins specific tenants to the hammer pattern while
// everyone else runs -pattern: the victim/aggressor co-placement mix the
// blast-radius experiment uses (aggressors hammer their device, victims
// verify their data on the same or other devices).
//
// Sessions survive migrations: a refusal or dropped connection during a
// fleet migration makes the session redial and resubmit its unacknowledged
// batch — the server's drain guarantees an interrupted batch was either
// fully acknowledged or never executed, so nothing is lost or doubled
// across a cutover.
//
// Example:
//
//	hammerload -addr 127.0.0.1:7701 -sessions 64 -tenants 4 -ops 2000 -pattern hammer
//	hammerload -addr 127.0.0.1:7701 -tenants 8 -pattern verify -aggressor-tenants 1,5
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ftlhammer/internal/ftl"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/stats"
	"ftlhammer/internal/transport"
)

// result is one session's contribution to the report.
type result struct {
	ops        int
	errs       int
	mapped     int
	corrupt    int
	reconnects int
	batchRTT   stats.Sample
	fatalErr   error
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7701", "hammerd address")
		sessions = flag.Int("sessions", 64, "concurrent sessions")
		tenants  = flag.Int("tenants", 4, "namespaces to spread sessions across (must be <= served tenants)")
		ops      = flag.Int("ops", 2000, "commands per session")
		batch    = flag.Int("batch", 16, "commands per doorbell batch")
		pattern  = flag.String("pattern", "uniform", "workload: uniform | hammer | seq | verify | kv | churn")
		readFrac = flag.Float64("read-frac", 0.8, "read fraction for the uniform pattern")
		pathFlag = flag.String("path", "direct", "submission path: direct | host-fs")
		seed     = flag.Int64("seed", 1, "workload RNG seed")
		dialWait = flag.Duration("dial-wait", 10*time.Second, "how long to retry connections (server startup and migration grace)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "overall run deadline")
		aggrList = flag.String("aggressor-tenants", "", "comma-separated tenants forced onto the hammer pattern")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file after the run")
	)
	flag.Parse()
	if *sessions < 1 || *tenants < 1 || *ops < 1 || *batch < 1 {
		fatal(errors.New("-sessions, -tenants, -ops and -batch must be positive"))
	}
	if *readFrac < 0 || *readFrac > 1 {
		fatal(fmt.Errorf("-read-frac must be in [0,1], got %g", *readFrac))
	}
	var path nvme.Path
	switch *pathFlag {
	case "direct":
		path = nvme.PathDirect
	case "host-fs":
		path = nvme.PathHostFS
	default:
		fatal(fmt.Errorf("unknown path %q", *pathFlag))
	}
	switch *pattern {
	case "uniform", "hammer", "seq", "verify", "kv", "churn":
	default:
		fatal(fmt.Errorf("unknown pattern %q", *pattern))
	}
	aggressors, err := parseTenantSet(*aggrList)
	if err != nil {
		fatal(err)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Probe once with retries: in CI the server races us to the socket.
	probe, err := dialRetry(ctx, *addr, transport.ClientConfig{NSID: 1, Window: *batch}, *dialWait)
	if err != nil {
		fatal(fmt.Errorf("connecting to %s: %w", *addr, err))
	}
	blockBytes := probe.BlockBytes()
	probe.Close()

	fmt.Printf("hammerload: %d sessions x %d ops (batch %d, pattern %s) against %s\n",
		*sessions, *ops, *batch, *pattern, *addr)
	if len(aggressors) > 0 {
		fmt.Printf("aggressor tenants (hammer pattern): %s\n", tenantSetString(aggressors))
	}
	results := make([]result, *sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := 1 + i%*tenants
			pat := *pattern
			if aggressors[tenant] {
				pat = "hammer"
			}
			cfg := transport.ClientConfig{
				NSID:   tenant,
				Path:   path,
				Window: *batch,
			}
			results[i] = runSession(ctx, *addr, cfg, sessionParams{
				ops:        *ops,
				batch:      *batch,
				pattern:    pat,
				readFrac:   *readFrac,
				blockBytes: blockBytes,
				grace:      *dialWait,
				rng:        rand.New(rand.NewSource(*seed + int64(i)*7919)),
			})
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all stats.Sample
	total, errCount, mapped, corrupt, reconnects, failedSessions := 0, 0, 0, 0, 0, 0
	for i := range results {
		r := &results[i]
		total += r.ops
		errCount += r.errs
		mapped += r.mapped
		corrupt += r.corrupt
		reconnects += r.reconnects
		all.Merge(&r.batchRTT)
		if r.fatalErr != nil {
			failedSessions++
			if failedSessions <= 3 {
				fmt.Fprintf(os.Stderr, "hammerload: session %d: %v\n", i, r.fatalErr)
			}
		}
	}
	fmt.Printf("completed: %d ops (%d with command errors, %d mapped reads) over %d/%d sessions in %v\n",
		total, errCount, mapped, *sessions-failedSessions, *sessions, elapsed.Round(time.Millisecond))
	if reconnects > 0 {
		fmt.Printf("reconnects: %d sessions redialed across drains/migrations\n", reconnects)
	}
	if *pattern == "verify" || *pattern == "kv" || len(aggressors) > 0 {
		fmt.Printf("verify: %d corrupt reads\n", corrupt)
	}
	if all.N() > 0 {
		toMS := func(s float64) float64 { return s * 1e3 }
		fmt.Printf("batch RTT: p50 %.3fms p95 %.3fms p99 %.3fms max %.3fms (%d batches)\n",
			toMS(all.Median()), toMS(all.Percentile(95)), toMS(all.Percentile(99)), toMS(all.Max()), all.N())
	}
	if total > 0 && elapsed > 0 {
		fmt.Printf("goodput: %.0f ops/s\n", float64(total)/elapsed.Seconds())
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // materialize the post-run live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	if total == 0 {
		fatal(errors.New("no operations completed"))
	}
	if corrupt > 0 {
		fatal(fmt.Errorf("%d corrupt reads", corrupt))
	}
	if failedSessions > 0 {
		fatal(fmt.Errorf("%d of %d sessions failed", failedSessions, *sessions))
	}
}

// parseTenantSet decodes a comma-separated tenant list into a set.
func parseTenantSet(s string) (map[int]bool, error) {
	set := map[int]bool{}
	if s == "" {
		return set, nil
	}
	for _, part := range strings.Split(s, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || t < 1 {
			return nil, fmt.Errorf("-aggressor-tenants: bad tenant %q", part)
		}
		set[t] = true
	}
	return set, nil
}

func tenantSetString(set map[int]bool) string {
	ids := make([]int, 0, len(set))
	for t := range set {
		ids = append(ids, t)
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, t := range ids {
		parts[i] = strconv.Itoa(t)
	}
	return strings.Join(parts, ",")
}

// dialRetry keeps dialing until the server accepts the session, the grace
// period runs out, or ctx dies. StatusShutdown refusals retry: they are
// the server draining or a fleet migrating the tenant's device, and the
// route comes back once the cutover completes. Any other remote refusal
// (unknown tenant, bad protocol) is final.
func dialRetry(ctx context.Context, addr string, cfg transport.ClientConfig, grace time.Duration) (*transport.Client, error) {
	deadline := time.Now().Add(grace)
	for {
		c, err := transport.Dial(ctx, addr, cfg)
		if err == nil {
			return c, nil
		}
		var remote *transport.RemoteError
		if errors.As(err, &remote) && remote.Status != transport.StatusShutdown {
			// The server answered and said no; retrying won't change that.
			return nil, err
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return nil, err
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

type sessionParams struct {
	ops        int
	batch      int
	pattern    string
	readFrac   float64
	blockBytes int
	grace      time.Duration
	rng        *rand.Rand
}

// maxBatchRetries bounds how many times one batch is resubmitted across
// reconnects before the session gives up.
const maxBatchRetries = 5

// runSession drives one closed loop: build a batch, ring, repeat. A lost
// session (connection fault, server drain, fleet migration) redials and
// resubmits the in-flight batch: a failed Ring means the batch was never
// acknowledged, and the server's drain semantics guarantee an unread batch
// never executed, so the resubmit is exactly-once across a migration
// cutover.
func runSession(ctx context.Context, addr string, cfg transport.ClientConfig, p sessionParams) result {
	var res result
	c, err := dialRetry(ctx, addr, cfg, p.grace)
	if err != nil {
		res.fatalErr = err
		return res
	}
	defer func() { c.Close() }()
	numLBAs := c.NumLBAs()
	if numLBAs == 0 {
		res.fatalErr = errors.New("empty namespace")
		return res
	}

	// The hammer pattern's aggressor set: a handful of LBAs spread across
	// the namespace, trimmed up front so the replayed reads hit unmapped
	// entries — the cheapest (and in the paper, the hammering) command.
	aggressors := []ftl.LBA{
		ftl.LBA(numLBAs / 7),
		ftl.LBA(3 * numLBAs / 7),
		ftl.LBA(5 * numLBAs / 7),
	}
	if p.pattern == "hammer" {
		for _, lba := range aggressors {
			if err := c.Trim(ctx, lba); err != nil {
				res.fatalErr = fmt.Errorf("priming aggressors: %w", err)
				return res
			}
		}
	}

	var seq uint64
	bufs := make([][]byte, p.batch)
	for i := range bufs {
		bufs[i] = make([]byte, p.blockBytes)
	}
	cmds := make([]nvme.Command, p.batch)
	for done := 0; done < p.ops; {
		// A batch holds at most the window the server granted, which
		// may be smaller than the one asked for.
		n := min(p.batch, c.Window(), p.ops-done)
		for i := 0; i < n; i++ {
			cmd := nvme.Command{Tag: uint64(done + i), Buf: bufs[i]}
			switch p.pattern {
			case "hammer":
				cmd.Op = nvme.OpRead
				cmd.LBA = aggressors[int(seq)%len(aggressors)]
			case "seq":
				cmd.Op = nvme.OpRead
				cmd.LBA = ftl.LBA(seq % numLBAs)
			case "verify":
				// Write a tagged block, then read it straight back (batches
				// execute in order within a session): the payload carries
				// the tenant and the LBA, so any mapped read returning a
				// different tag is a corruption — wrong tenant's data or
				// wrong block.
				cmd.LBA = ftl.LBA((seq / 2) % numLBAs)
				if seq%2 == 0 {
					cmd.Op = nvme.OpWrite
					stampBlock(bufs[i], cfg.NSID, uint64(cmd.LBA))
				} else {
					cmd.Op = nvme.OpRead
				}
			case "kv":
				// The KV victim's record workload: append a CRC-framed
				// record, then read it straight back. The framing (magic,
				// key echo, CRC) turns any translation redirect into a loud
				// lost/misdirected/corrupt verdict instead of silent data.
				cmd.LBA = ftl.LBA((seq / 2) % numLBAs)
				if seq%2 == 0 {
					cmd.Op = nvme.OpWrite
					kvStamp(bufs[i], cfg.NSID, uint64(cmd.LBA))
				} else {
					cmd.Op = nvme.OpRead
				}
			case "churn":
				// The GC victim's pressure workload: hash-random overwrites
				// of a window at the top of the namespace. Blocks lose
				// validity gradually (as under a real random-update load),
				// so the device's garbage collector must relocate live
				// pages rather than erase fully-dead blocks for free.
				span := numLBAs / 8
				if span == 0 {
					span = 1
				}
				cmd.Op = nvme.OpWrite
				cmd.LBA = ftl.LBA(numLBAs - span + churnOffset(seq)%span)
				stampBlock(bufs[i], cfg.NSID, uint64(cmd.LBA))
			default: // uniform
				cmd.LBA = ftl.LBA(p.rng.Uint64() % numLBAs)
				if p.rng.Float64() < p.readFrac {
					cmd.Op = nvme.OpRead
				} else {
					cmd.Op = nvme.OpWrite
				}
			}
			seq++
			cmds[i] = cmd
		}

		// Submit and ring, redialing on a lost session. Submit errors are
		// only queue/broken-session states, so they share the retry path.
		var rtt time.Duration
		for attempt := 0; ; attempt++ {
			err := func() error {
				for i := 0; i < n; i++ {
					if err := c.Submit(cmds[i]); err != nil {
						return err
					}
				}
				t0 := time.Now()
				if _, err := c.Ring(ctx); err != nil {
					return err
				}
				rtt = time.Since(t0)
				return nil
			}()
			if err == nil {
				break
			}
			if attempt >= maxBatchRetries || ctx.Err() != nil {
				res.fatalErr = err
				return res
			}
			c.Close()
			nc, derr := dialRetry(ctx, addr, cfg, p.grace)
			if derr != nil {
				res.fatalErr = fmt.Errorf("reconnect after %v: %w", err, derr)
				return res
			}
			c = nc
			res.reconnects++
		}
		res.batchRTT.Add(rtt.Seconds())
		for i, comp := range c.Completions() {
			res.ops++
			if comp.Err != nil {
				res.errs++
			}
			if comp.Mapped {
				res.mapped++
			}
			if cmds[i].Op == nvme.OpRead && comp.Err == nil {
				switch p.pattern {
				case "verify":
					if comp.Mapped && !checkBlock(bufs[i], cfg.NSID, uint64(cmds[i].LBA)) {
						res.corrupt++
					}
				case "kv":
					// A lost key (unmapped read of a just-written record)
					// counts too: the index said the record exists.
					if !comp.Mapped || !kvCheck(bufs[i], cfg.NSID, uint64(cmds[i].LBA)) {
						res.corrupt++
					}
				}
			}
		}
		done += n
	}
	return res
}

// stampBlock tags a block with its owner and address: tenant at [0:8),
// LBA at [8:16), tenant byte fill after.
func stampBlock(buf []byte, tenant int, lba uint64) {
	for i := range buf {
		buf[i] = byte(tenant)
	}
	binary.LittleEndian.PutUint64(buf, uint64(tenant))
	binary.LittleEndian.PutUint64(buf[8:], lba)
}

// checkBlock verifies a stamp written by stampBlock.
func checkBlock(buf []byte, tenant int, lba uint64) bool {
	return binary.LittleEndian.Uint64(buf) == uint64(tenant) &&
		binary.LittleEndian.Uint64(buf[8:]) == lba
}

// KV record framing for the kv pattern: magic u32, key u64, crc u32,
// value fill after. The key encodes tenant and LBA, so records are
// identical across sessions of the same tenant (concurrent overwrites
// are benign, like verify's stamps) and a misdirected read fails the
// key echo.
const kvLoadMagic = 0x4B564C44 // "KVLD"

var kvLoadTable = crc32.MakeTable(crc32.Castagnoli)

func kvStamp(buf []byte, tenant int, lba uint64) {
	key := uint64(tenant)<<32 | lba
	for i := range buf {
		buf[i] = byte(key) ^ 0x4B
	}
	binary.LittleEndian.PutUint32(buf, kvLoadMagic)
	binary.LittleEndian.PutUint64(buf[4:], key)
	crc := crc32.Checksum(buf[16:], kvLoadTable)
	binary.LittleEndian.PutUint32(buf[12:], crc)
}

func kvCheck(buf []byte, tenant int, lba uint64) bool {
	if binary.LittleEndian.Uint32(buf) != kvLoadMagic {
		return false // corrupt record
	}
	if binary.LittleEndian.Uint64(buf[4:]) != uint64(tenant)<<32|lba {
		return false // misdirected: someone else's record
	}
	return binary.LittleEndian.Uint32(buf[12:]) == crc32.Checksum(buf[16:], kvLoadTable)
}

// churnOffset maps the i-th churn write to a window offset by a
// splitmix-style hash, so overwrites land uniformly rather than
// cyclically (see victims.ChurnHammerer).
func churnOffset(i uint64) uint64 {
	x := i + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hammerload:", err)
	os.Exit(1)
}
