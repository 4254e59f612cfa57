package main

import (
	"bytes"
	"io"
	"time"

	"ftlhammer/internal/attack"
	"ftlhammer/internal/experiments"
	"ftlhammer/internal/fleet"
	"ftlhammer/internal/nvme"
	"ftlhammer/internal/obs"
)

// tracing returns the tracer for a unit: spans are recorded only in the
// traced unit, never in the untraced one that prices the tracing.
func (r *runner) tracing(traced bool) *tracer {
	if traced {
		return r.tr
	}
	return nil
}

// runExperiment runs one experiment in quick mode on one worker, writing
// its output to w, and returns its host seconds. A non-nil c switches the
// layers' counters on through Options.Obs and adds them into c.
func runExperiment(e experiments.Experiment, w io.Writer, c counts, t *tracer) (float64, error) {
	opt := experiments.Options{Quick: true, Workers: 1}
	if c != nil {
		opt.Obs = obs.NewRegistry()
	}
	h := t.begin("experiments."+e.ID, 0)
	t0 := time.Now()
	err := e.Run(w, opt)
	wall := time.Since(t0).Seconds()
	t.end(h)
	if c != nil {
		c.add(opt.Obs)
	}
	return wall, err
}

// experimentWorkload runs experiments from the registry: attack-ttl runs
// §4.2's ttl alone, suite runs the other fourteen. A unit is one pass over
// the list; every output is checked against its golden digest.
type experimentWorkload struct {
	ids  []string
	exps []experiments.Experiment
}

// setup resolves the experiments from the registry. Each experiment builds
// its devices and testbeds inside Run, on the clock, so this takes
// microseconds and setup_s on these workloads is the binary's start-up.
func (w *experimentWorkload) setup(r *runner, traced bool) error {
	ids := w.ids
	if r.sz.experiments != nil {
		ids = r.sz.experiments
	}
	t := r.tracing(traced)
	w.exps = w.exps[:0]
	for _, id := range ids {
		h := t.begin("experiments.ByID", 0)
		e, err := experiments.ByID(id)
		t.end(h)
		if err != nil {
			return err
		}
		w.exps = append(w.exps, e)
	}
	return nil
}

func (w *experimentWorkload) unit(r *runner, traced bool) (uint64, error) {
	t := r.tracing(traced)
	all := counts{}
	var cmds uint64
	var out bytes.Buffer
	for _, e := range w.exps {
		id := e.ID
		out.Reset()
		var c counts
		if traced {
			c = counts{}
		}
		wall, err := runExperiment(e, &out, c, t)
		g, known := r.gold.Experiments[id]
		ok := false
		switch {
		case err != nil:
			r.problem("%s: %v", id, err)
		case !known:
			r.problem("%s: no golden output recorded", id)
		case digest(id, out.Bytes()) != g.SHA256:
			r.problem("%s: output digest differs from the golden one", id)
		case traced && g.Commands != nil && c["nvme_commands_total"] != *g.Commands:
			r.problem("%s: %d NVMe commands, golden %d", id, c["nvme_commands_total"], *g.Commands)
		default:
			ok = true
		}
		r.res.add(ok)
		if g.Commands != nil {
			cmds += *g.Commands
		}
		if traced {
			r.layer["experiments."+id+".wall_s"] = wall
			for k, v := range c {
				all[k] += v
			}
		}
	}
	if traced {
		all.layerCounts(r.layer)
	}
	return cmds, nil
}

func (w *experimentWorkload) teardown(*runner, bool) error { return nil }

// hammerSpec is the hammered device: weak DRAM, one tenant, the paper's
// x5 firmware amplification.
var hammerSpec = fleet.DeviceSpec{Profile: "weak", Tenants: 1, Amplify: 5}

// hammerWorkload is the pure hammered-read path: one attack pipeline
// (contiguous allocator, device hammerer, canary victim) driving the
// double-sided pattern through nvme, ftl and dram. A unit needs a fresh
// device, because hammering leaves flips behind.
type hammerWorkload struct {
	bd  *fleet.BuiltDevice
	reg *obs.Registry
	// first is the run's first outcome, the reference for seeds that
	// have no golden.
	first *hammerOutcome
}

func (w *hammerWorkload) setup(r *runner, traced bool) error {
	t := r.tracing(traced)
	w.reg = nil
	if traced {
		w.reg = obs.NewRegistry()
	}
	h := t.begin("fleet.DeviceSpec.Build", 0)
	bd, err := hammerSpec.Build(r.seed, w.reg)
	t.end(h)
	w.bd = bd
	return err
}

// pipeline runs the attack once on the built device.
func (w *hammerWorkload) pipeline(r *runner, traced bool) (hammerOutcome, error) {
	t := r.tracing(traced)
	dev := w.bd.Device
	ns := dev.Namespaces()[0]
	p := attack.Pipeline{
		Dev:      dev,
		NS:       ns,
		Path:     nvme.PathDirect,
		Alloc:    &attack.ContiguousAllocator{MaxBindings: r.sz.hammerBindings},
		Hammerer: &attack.DeviceHammerer{Dev: dev, NS: ns, Path: nvme.PathDirect},
		Victim:   &attack.CanaryVictim{Dev: dev, NS: ns, Path: nvme.PathDirect, MaxLines: 1},
		Obs:      w.reg,
	}
	h := t.begin("attack.Pipeline.Run", 0)
	if t != nil {
		id := t.id(h)
		p.Alloc = tracedAllocator{p.Alloc, t, id}
		p.Hammerer = tracedHammerer{p.Hammerer, t, id}
		p.Victim = tracedVictim{p.Victim, t, id}
	}
	pat := attack.DoublePattern()
	pat.Iterations = r.sz.hammerIters
	before := ns.Stats()
	res, err := p.Run(pat)
	t.end(h)
	after := ns.Stats()
	return hammerOutcome{
		Flips:     res.Flips,
		Remapped:  res.Victim.Remapped,
		Corrupted: res.Victim.Corrupted,
		Commands:  after.Reads + after.Writes + after.Trims - before.Reads - before.Writes - before.Trims,
	}, err
}

func (w *hammerWorkload) unit(r *runner, traced bool) (uint64, error) {
	o, err := w.pipeline(r, traced)
	ok := err == nil
	if err != nil {
		r.problem("hammer pipeline: %v", err)
	} else if g, found := r.gold.hammer(r.seed, r.sz.hammerIters, r.sz.hammerBindings); found && o != g {
		r.problem("hammer outcome %+v, golden %+v", o, g)
		ok = false
	} else if !found && w.first != nil && o != *w.first {
		r.problem("hammer outcome %+v differs from the run's first %+v", o, *w.first)
		ok = false
	}
	if ok && w.first == nil {
		w.first = &o
	}
	r.res.add(ok)
	if traced {
		c := counts{}
		c.add(w.reg)
		c.layerCounts(r.layer)
		for _, stage := range []string{"allocate", "arm", "hammer", "check"} {
			r.layer["attack."+stage+"_s"] = r.tr.seconds("attack."+stage, r.tr.trace)
		}
	}
	return o.Commands, nil
}

func (w *hammerWorkload) teardown(*runner, bool) error {
	w.bd, w.reg = nil, nil
	return nil
}
