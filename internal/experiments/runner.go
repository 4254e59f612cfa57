package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ftlhammer/internal/obs"
	"ftlhammer/internal/stats"
)

// Options control how an experiment executes.
type Options struct {
	// Quick trades population sizes for runtime; result shapes are
	// preserved.
	Quick bool
	// Workers bounds the trial-engine worker pool. Zero or negative
	// selects runtime.GOMAXPROCS(0). Worker count never changes
	// experiment output: trials are sharded deterministically (fixed
	// shard boundaries, SplitSeed-derived per-shard seeds) and merged in
	// trial order, so Workers=1 and Workers=N are byte-identical.
	Workers int
	// Obs, when non-nil, is the run's root metrics registry and tracer.
	// Worlds built on the calling goroutine attach it directly; trials
	// fanned across the worker pool each get their own per-shard
	// registry (runTrialsObs), flushed on the owning worker and merged
	// into Obs in trial order — so metric snapshots, like experiment
	// output, are byte-identical at any Workers value. Nil disables
	// observability at ~zero hot-path cost.
	Obs *obs.Registry
	// Checkpoint, when non-nil, persists completed trial results and
	// satisfies already-completed trials from the store on resume (see
	// OpenCheckpoint). Resumed trials skip simulation and registry work
	// entirely, so report output stays byte-identical while metrics
	// cover only re-executed trials.
	Checkpoint *Checkpoint
}

// WorkerCount resolves the effective worker-pool size.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runTrials fans trials 0..n-1 across a bounded worker pool and returns
// their results in trial order. Each trial must be self-contained: build
// its own sim.World (and everything inside it) and never touch shared
// mutable state — which is what makes the fan-out safe and the merge
// deterministic.
//
// Error semantics match a serial loop: the error of the lowest-numbered
// failing trial is returned. Once a failure is known, trials with higher
// indices are skipped (their results would be discarded anyway), while
// lower-numbered trials still run to completion so the reported error is
// deterministic across worker counts. Panics in trial functions propagate
// to the caller.
//
// The heap is collected after every trial: a trial's world is garbage
// once it returns, and the collection keeps the next trial from growing
// into it (see collectAfter). On a 2-CPU host this took ttl's peak RSS
// from 950-963 MB to 590 MB.
func runTrials[T any](workers, n int, run func(trial int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	fn := func(i int) (T, error) {
		defer runtime.GC()
		return run(i)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		out := make([]T, n)
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	firstErr := atomic.Int64{}
	firstErr.Store(int64(n)) // lowest failing trial index seen so far
	panics := make(chan any, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					select {
					case panics <- p:
					default:
					}
					next.Store(int64(n)) // stop handing out trials
				}
			}()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if int64(i) > firstErr.Load() {
					continue // a lower trial already failed
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					for {
						cur := firstErr.Load()
						if int64(i) >= cur || firstErr.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
	if e := firstErr.Load(); e < int64(n) {
		return nil, errs[e]
	}
	return out, nil
}

// EvTrial marks a trial boundary in a merged trace stream: trial index.
// Each trial world's virtual clock restarts at zero, so readers use these
// markers to segment the merged timeline.
const EvTrial = "runner.trial"

// shardTraceCap bounds each trial's event ring. The root registry's own
// (larger) ring bounds the merged stream.
const shardTraceCap = 4096

func init() {
	obs.RegisterEventKind(EvTrial, "trial", "", "")
}

// runTrialsObs is runTrials with per-trial observability: when opt.Obs is
// set, every trial receives its own registry (with a tracer iff the root
// has one), which is flushed on the owning worker goroutine and merged
// into opt.Obs in trial order after the fan-out completes — the same
// fixed-shard, ordered-merge discipline that keeps experiment output
// byte-identical at any worker count. Trial functions must attach the
// registry to the world(s) they build (world.Obs, cloud.Config.Obs).
//
// On error no merge happens: which higher-numbered trials ran depends on
// scheduling, and the run is aborting anyway.
//
// With opt.Checkpoint set, each fan-out is a numbered phase of the
// current experiment: completed trials are served from the store (doing
// zero simulation and zero registry work — their shard registry stays
// nil, which Merge ignores) and freshly computed results are persisted
// as they complete.
func runTrialsObs[T any](opt Options, n int, fn func(trial int, reg *obs.Registry) (T, error)) ([]T, error) {
	root := opt.Obs
	ck := opt.Checkpoint
	seq := 0
	if ck != nil {
		seq = ck.beginPhase()
	}
	regs := make([]*obs.Registry, n)
	tracing := root.Tracing()
	out, err := runTrials(opt.WorkerCount(), n, func(i int) (T, error) {
		if ck != nil {
			if data, ok := ck.lookup(seq, i); ok {
				var v T
				if err := decodeTrial(data, &v); err == nil {
					return v, nil
				}
				// Undecodable record (different binary): re-execute.
			}
		}
		var reg *obs.Registry
		if root != nil {
			reg = obs.NewRegistry()
			if tracing {
				reg = obs.NewTracing(shardTraceCap)
			}
			regs[i] = reg
			reg.Emit(0, EvTrial, int64(i), 0, 0)
		}
		start := time.Now()
		v, err := fn(i, reg)
		if root != nil {
			reg.VolatileHistogram("runner_trial_wallclock_seconds", obs.SecondsBuckets).
				Observe(time.Since(start).Seconds())
			reg.Counter("runner_trials_total").Inc()
			if err != nil {
				reg.Counter("runner_trials_failed_total").Inc()
			}
			reg.Flush()
		}
		if err == nil && ck != nil {
			if data, encErr := encodeTrial(v); encErr == nil {
				ck.record(seq, i, data)
			}
		}
		return v, err
	})
	if err != nil {
		return nil, err
	}
	for _, reg := range regs {
		root.Merge(reg)
	}
	return out, nil
}

// mergeSamples folds per-trial samples into one, in trial order. Used by
// experiments that fan measurement trials across the pool and then report
// aggregate statistics.
func mergeSamples(parts []*stats.Sample) *stats.Sample {
	var m stats.Sample
	for _, p := range parts {
		m.Merge(p)
	}
	return &m
}
