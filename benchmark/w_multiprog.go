package main

import (
	"fmt"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/harness"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// multiprogWorkload is multiprog-alloc: the allocation figure's rows
// for low-end/SMT2 and high-end/SMT2 at test size, mirroring
// harness.allocRow through core's exported API — one SearchStatic over
// the canonical static assignments, then the mix under the five policy
// columns. Single-threaded, like one row of the figure.
type multiprogWorkload struct {
	machines []config.Machine
	jobs     map[string][]*prog.Program
	last     map[string]int64 // "<machine>/<policy>" -> cycles
	lastInst map[string]uint64
	found    map[string][2][]int // machine -> the last search's best and worst
}

// The figure's own parameters (harness/allocfig.go).
const (
	allocSearchPrefix = 20_000
	allocSearchCap    = 64
	allocFigEpoch     = 2000
)

// allocMix is the figure's heterogeneous job mix: alternating
// memory-bound and compute/sync-bound single-thread jobs on half the
// hardware contexts.
func allocMix(contexts int) []*prog.Program {
	mix := []func() workloads.Workload{workloads.Ocean, workloads.Fmm, workloads.Swim, workloads.Tomcatv}
	jobs := make([]*prog.Program, max(2, contexts/2))
	for i := range jobs {
		jobs[i] = mix[i%len(mix)]().Build(1, 1, workloads.SizeTest)
	}
	return jobs
}

func (w *multiprogWorkload) setUp(e *env) error {
	if err := e.loadGolden(); err != nil {
		return err
	}
	w.machines = []config.Machine{config.LowEnd(config.SMT2), config.HighEnd(config.SMT2)}
	if e.smoke {
		w.machines = w.machines[:1]
	}
	e.rng.Shuffle(len(w.machines), func(i, j int) { w.machines[i], w.machines[j] = w.machines[j], w.machines[i] })
	w.jobs = map[string][]*prog.Program{}
	for _, m := range w.machines {
		w.jobs[m.Name] = allocMix(m.Threads())
	}
	// Warm the process on the static column of each row.
	for _, m := range w.machines {
		if _, err := w.column(e, nil, m, "static", nil, nil, -1); err != nil {
			return err
		}
	}
	return nil
}

func (w *multiprogWorkload) tearDown() {}

// colRun is one policy column's measurements.
type colRun struct {
	res           *core.Result
	run, all      time.Duration
	fastForwarded int64
}

// column runs the mix on m under one policy column, with spans under
// parent when tr is not nil.
func (w *multiprogWorkload) column(e *env, tr *tracer, m config.Machine, pol string, best, worst []int, parent int) (colRun, error) {
	var c colRun
	t0 := time.Now()
	pm := m
	var start []int
	switch pol {
	case "static":
	case "worst":
		start = worst
	case "oracle":
		start = best
	default:
		pm.Alloc = config.AllocConfig{Policy: pol, Epoch: allocFigEpoch}
		start = worst
	}
	id := m.Name + "/" + pol
	var sim *core.Simulator
	var err error
	tr.timed("core.NewMulti", id, parent, 0, func() {
		if sim, err = core.NewMulti(pm, w.jobs[m.Name]); err == nil && start != nil {
			err = sim.SetAssignment(start)
		}
	})
	if err != nil {
		return c, fmt.Errorf("%s: %w", id, err)
	}
	c.run = tr.timed("core.Run", id, parent, 0, func() { c.res, err = sim.Run() })
	if err != nil {
		return c, fmt.Errorf("%s: %w", id, err)
	}
	c.all = time.Since(t0)
	c.fastForwarded = sim.FastForwarded()
	e.check(kAlloc, id, c.res)
	return c, nil
}

func (w *multiprogWorkload) search(m config.Machine) (best, worst []int, err error) {
	mk := func() (*core.Simulator, error) { return core.NewMulti(m, w.jobs[m.Name]) }
	return core.SearchStatic(mk, allocSearchPrefix, allocSearchCap)
}

func (w *multiprogWorkload) pass(e *env, _ int) (passResult, error) {
	var pr passResult
	w.last, w.lastInst, w.found = map[string]int64{}, map[string]uint64{}, map[string][2][]int{}
	for _, m := range w.machines {
		best, worst, err := w.search(m)
		if err != nil {
			return pr, err
		}
		w.found[m.Name] = [2][]int{best, worst}
		for _, pol := range harness.AllocPolicies {
			c, err := w.column(e, nil, m, pol, best, worst, -1)
			if err != nil {
				return pr, err
			}
			pr.jobs++
			pr.inst += c.res.Committed
			pr.cold = append(pr.cold, coldSample{m.Name + "/" + pol, ms(c.all)})
			w.last[m.Name+"/"+pol] = c.res.Cycles
			w.lastInst[m.Name+"/"+pol] = c.res.Committed
		}
	}
	return pr, nil
}

// repeatCold runs the ten columns once more from the last pass's
// assignments, without the searches: a pass is 94 % SearchStatic, so the
// passes of a run sample each column's latency only twice.
func (w *multiprogWorkload) repeatCold(e *env) ([]coldSample, error) {
	var cold []coldSample
	for _, m := range w.machines {
		f := w.found[m.Name]
		for _, pol := range harness.AllocPolicies {
			c, err := w.column(e, nil, m, pol, f[0], f[1], -1)
			if err != nil {
				return nil, err
			}
			cold = append(cold, coldSample{m.Name + "/" + pol, ms(c.all)})
		}
	}
	return cold, nil
}

// experimentsAllocTable is EXPERIMENTS.md's measured table for the two
// rows (test inputs, cycles).
var experimentsAllocTable = map[string]int64{
	"low-end/SMT2/static": 19796, "low-end/SMT2/worst": 26692, "low-end/SMT2/icount": 22082,
	"low-end/SMT2/symbiosis": 22082, "low-end/SMT2/oracle": 16366,
	"high-end/SMT2/static": 32152, "high-end/SMT2/worst": 34108, "high-end/SMT2/icount": 23927,
	"high-end/SMT2/symbiosis": 29077, "high-end/SMT2/oracle": 33699,
}

// claims: every column reproduces the EXPERIMENTS.md table, the
// expected ordering oracle <= symbiosis <= icount <= worst (which the
// table itself shows failing on high-end/SMT2, where the dynamic
// policies beat the prefix-scored oracle), and migration conserves
// work.
func (w *multiprogWorkload) claims(*env) []claim {
	var cs []claim
	for _, m := range w.machines {
		k := func(pol string) string { return m.Name + "/" + pol }
		for _, pol := range harness.AllocPolicies {
			cs = append(cs, claim{"alloc: " + k(pol) + " cycles as in EXPERIMENTS.md", w.last[k(pol)] == experimentsAllocTable[k(pol)]})
		}
		cs = append(cs,
			claim{"alloc: " + m.Name + " oracle <= symbiosis", w.last[k("oracle")] <= w.last[k("symbiosis")]},
			claim{"alloc: " + m.Name + " symbiosis <= icount", w.last[k("symbiosis")] <= w.last[k("icount")]},
			claim{"alloc: " + m.Name + " icount <= worst", w.last[k("icount")] <= w.last[k("worst")]},
			claim{"alloc: " + m.Name + " static <= worst", w.last[k("static")] <= w.last[k("worst")]},
			claim{"alloc: " + m.Name + " every policy commits the same instructions",
				w.lastInst[k("icount")] == w.lastInst[k("static")] && w.lastInst[k("symbiosis")] == w.lastInst[k("static")]},
		)
	}
	return cs
}

func (w *multiprogWorkload) traced(e *env) error {
	// Untraced reference pass for the trace overhead.
	t0 := time.Now()
	if _, err := w.pass(e, 0); err != nil {
		return err
	}
	wallU := time.Since(t0).Seconds()

	mem := startMem()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	var stats resultStats
	var inst, epochs, migrations uint64
	var searchS, runNS, cycles, staticNS, staticCyc, dynNS, dynCyc, ff float64
	t0 = time.Now()
	for _, m := range w.machines {
		root := e.tr.begin("bench.row", m.Name, -1, 0)
		var best, worst []int
		d := e.tr.timed("core.SearchStatic", m.Name, root, 0, func() { best, worst, err = w.search(m) })
		if err != nil {
			return err
		}
		searchS += d.Seconds()
		for _, pol := range harness.AllocPolicies {
			c, err := w.column(e, e.tr, m, pol, best, worst, root)
			if err != nil {
				return err
			}
			stats.add(c.res)
			inst += c.res.Committed
			epochs += c.res.AllocEpochs
			migrations += c.res.AllocMigrations
			runNS += float64(c.run)
			cycles += float64(c.res.Cycles)
			ff += float64(c.fastForwarded)
			switch pol {
			case "icount", "symbiosis":
				dynNS += float64(c.run)
				dynCyc += float64(c.res.Cycles)
			default:
				staticNS += float64(c.run)
				staticCyc += float64(c.res.Cycles)
			}
			e.addDetail(map[string]any{"kind": "column", "machine": m.Name, "policy": pol, "cycles": c.res.Cycles,
				"migrations": c.res.AllocMigrations, "epochs": c.res.AllocEpochs, "run_ms": ms(c.run),
				"host_ns_per_cycle": float64(c.run) / float64(c.res.Cycles)})
		}
		e.tr.end(root)
	}
	wallT := time.Since(t0).Seconds()
	if err := prof.stop(e); err != nil {
		return err
	}
	mem.emit(e, inst)
	stats.emit(e)

	e.set("bench.trace_overhead_pct", 100*(wallT/wallU-1))
	e.set("core.search_s", searchS)
	e.set("core.new_ms", median(e.tr.durations("core.NewMulti")))
	e.set("core.run_s", runNS/1e9)
	e.set("core.ns_per_inst", runNS/float64(inst))
	e.set("core.ns_per_cycle", ratio(staticNS, staticCyc))
	e.set("core.ff_cycle_share", ff/cycles)
	e.set("alloc.epochs", float64(epochs))
	e.set("alloc.migrations", float64(migrations))
	e.set("alloc.dynamic_ns_per_cycle", ratio(dynNS, dynCyc))
	return nil
}
