package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/harness"
	"clustersmt/internal/parallel"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// figsWorkload is figs-lowend / figs-highend: the 42 distinct (6 apps x
// 7 architectures) cells behind the paper's execution-time figures,
// run through a fresh harness.Suite at its default parallelism, one
// matrix per pass. The seed shuffles the order the matrix is handed to
// the suite; the cells themselves are the paper's.
type figsWorkload struct {
	highEnd bool
	size    workloads.Size
	apps    []workloads.Workload
	archs   []config.Arch
	last    map[string]map[string]*core.Result
}

type cell struct {
	app  workloads.Workload
	arch config.Arch
}

func (w *figsWorkload) machine(a config.Arch) config.Machine {
	if w.highEnd {
		return config.HighEnd(a)
	}
	return config.LowEnd(a)
}

// cellKey names a figure cell in the golden corpus. SMT8 is FA8 under
// another name (one physical configuration, section 5.2).
func cellKey(size workloads.Size, m config.Machine, app string) string {
	return fmt.Sprintf("%s/%s/%s", size, strings.Replace(m.Name, "SMT8", "FA8", 1), app)
}

func (w *figsWorkload) cells() []cell {
	var cs []cell
	for _, a := range w.apps {
		for _, ar := range w.archs {
			cs = append(cs, cell{a, ar})
		}
	}
	return cs
}

func (w *figsWorkload) setUp(e *env) error {
	if err := e.loadGolden(); err != nil {
		return err
	}
	w.size = workloads.SizeRef
	w.apps = workloads.All()
	w.archs = append([]config.Arch(nil), config.AllArchs...)
	if e.smoke {
		w.size = workloads.SizeTest
		w.apps = w.apps[:2]
	}
	e.rng.Shuffle(len(w.apps), func(i, j int) { w.apps[i], w.apps[j] = w.apps[j], w.apps[i] })
	e.rng.Shuffle(len(w.archs), func(i, j int) { w.archs[i], w.archs[j] = w.archs[j], w.archs[i] })
	if e.smoke {
		return nil
	}
	// Warm the process (heap, code, the builders) on the same cells at
	// test size, so the first timed pass is not the odd one out.
	warm := harness.NewSuite(workloads.SizeTest)
	res, err := warm.RunMatrixContext(context.Background(), w.apps, w.archs, w.highEnd)
	if err != nil {
		return err
	}
	for _, c := range w.cells() {
		e.check(kCell, cellKey(workloads.SizeTest, w.machine(c.arch), c.app.Name), res[c.app.Name][c.arch.Name])
	}
	return nil
}

func (w *figsWorkload) tearDown() {}

// suitePass runs the matrix through a fresh Suite and returns the
// suite (now holding every cell) and each simulation's duration.
func (w *figsWorkload) suitePass(e *env) (*harness.Suite, passResult, error) {
	s := harness.NewSuite(w.size)
	var mu sync.Mutex
	var pr passResult
	s.OnSimulate = func(_ context.Context, app, machine string, _ bool, d time.Duration, _ error) {
		mu.Lock()
		pr.cold = append(pr.cold, coldSample{machine + "/" + app, ms(d)})
		mu.Unlock()
	}
	res, err := s.RunMatrixContext(context.Background(), w.apps, w.archs, w.highEnd)
	if err != nil {
		return nil, pr, err
	}
	for _, c := range w.cells() {
		r := res[c.app.Name][c.arch.Name]
		e.check(kCell, cellKey(w.size, w.machine(c.arch), c.app.Name), r)
		pr.inst += r.Committed
		pr.jobs++
	}
	w.last = res
	return s, pr, nil
}

func (w *figsWorkload) pass(e *env, _ int) (passResult, error) {
	_, pr, err := w.suitePass(e)
	return pr, err
}

// ---- claims: the EXPERIMENTS.md scorecard ----

func (w *figsWorkload) cycles(app, arch string) int64 {
	if arch == "SMT8" {
		arch = "FA8" // one physical configuration (§5.2)
	}
	if r := w.last[app][arch]; r != nil {
		return r.Cycles
	}
	return math.MaxInt64
}

func (w *figsWorkload) bestFA(app string) string {
	best := "FA8"
	for _, a := range []string{"FA4", "FA2", "FA1"} {
		if w.cycles(app, a) < w.cycles(app, best) {
			best = a
		}
	}
	return best
}

// smt2Gain is the average, over applications, of SMT2's cycle saving
// against the best fixed-assignment processor, in percent (Fig. 4).
func (w *figsWorkload) smt2Gain() float64 {
	g := 0.0
	for _, a := range w.apps {
		best := float64(w.cycles(a.Name, w.bestFA(a.Name)))
		g += 100 * (best - float64(w.cycles(a.Name, "SMT2"))) / best
	}
	return g / float64(len(w.apps))
}

// paperSweetSpots are the paper's best FA processor per application on
// each machine (Figs. 4 and 5); where it names two, either holds.
var paperSweetSpots = map[bool]map[string][]string{
	false: {"vpenta": {"FA8"}, "ocean": {"FA8"}, "swim": {"FA4"}, "fmm": {"FA4"}, "tomcatv": {"FA2"}, "mgrid": {"FA2"}},
	true:  {"vpenta": {"FA8"}, "ocean": {"FA8"}, "swim": {"FA1"}, "fmm": {"FA1", "FA2"}, "tomcatv": {"FA1"}, "mgrid": {"FA1"}},
}

// claims are the scorecard's, with the tolerances the repository's own
// acceptance tests (internal/harness TestPaper*) give them: SMT2 may
// trail SMT4 by 3%, and SMT1 by 10% (12% on the high-end machine, the
// scorecard's "1-11%" as measured), and the 13% headline holds between
// 5% and 25% — harness.smt2_gain_err_pts carries the distance itself.
func (w *figsWorkload) claims(*env) []claim {
	fig, band := "fig4", 1.10
	if w.highEnd {
		fig, band = "fig5", 1.12
	}
	figS := map[bool]string{false: "fig7", true: "fig8"}[w.highEnd]
	var cs []claim
	for _, a := range w.apps {
		n := a.Name
		spot := false
		for _, want := range paperSweetSpots[w.highEnd][n] {
			spot = spot || w.bestFA(n) == want
		}
		cs = append(cs,
			claim{fig + ": best FA for " + n, spot},
			claim{fig + ": SMT2 fewest cycles for " + n, w.cycles(n, "SMT2") <= w.cycles(n, w.bestFA(n))},
			claim{figS + ": SMT8>=SMT4>=SMT2 for " + n, w.cycles(n, "SMT8") >= w.cycles(n, "SMT4") && 1.03*float64(w.cycles(n, "SMT4")) >= float64(w.cycles(n, "SMT2"))},
			claim{figS + ": SMT2 within band of SMT1 for " + n, float64(w.cycles(n, "SMT2")) <= band*float64(w.cycles(n, "SMT1"))},
		)
	}
	if !w.highEnd {
		cs = append(cs, claim{"fig4: SMT2 about 13% better than the best FA", w.smt2Gain() >= 5 && w.smt2Gain() <= 25})
	}
	return cs
}

// ---- traced run ----

// forEach runs fn(i, lane) for i in [0,n) on `workers` goroutines.
func forEach(n, workers int, fn func(i, lane int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for lane := 0; lane < workers; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range next {
				fn(i, lane)
			}
		}(lane)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// directRun is one cell simulated by direct calls into workloads and
// core, each inside a span.
type directRun struct {
	res           *core.Result
	run           time.Duration
	fastForwarded int64
}

func (e *env) direct(c cell, m config.Machine, size workloads.Size, lane int) (directRun, error) {
	id := m.Name + "/" + c.app.Name
	root := e.tr.begin("bench.cell", id, -1, lane)
	defer e.tr.end(root)
	var d directRun
	var p *prog.Program
	e.tr.timed("workloads.Build", id, root, lane, func() { p = c.app.Build(m.Threads(), m.Chips, size) })
	var sim *core.Simulator
	var err error
	e.tr.timed("core.New", id, root, lane, func() { sim, err = core.New(m, p) })
	if err != nil {
		return d, err
	}
	d.run = e.tr.timed("core.Run", id, root, lane, func() { d.res, err = sim.Run() })
	if err != nil {
		return d, err
	}
	d.fastForwarded = sim.FastForwarded()
	return d, nil
}

func (w *figsWorkload) traced(e *env) error {
	nproc := runtime.GOMAXPROCS(0)
	cells := w.cells()

	// Untraced reference pass (the second of two: the first grows the
	// heap): the trace-overhead base, the Suite's parallel efficiency,
	// and a warm Suite for the hit probe.
	if _, _, err := w.suitePass(e); err != nil {
		return err
	}
	t0 := time.Now()
	suite, pr, err := w.suitePass(e)
	if err != nil {
		return err
	}
	wallU := time.Since(t0).Seconds()
	e.set("harness.parallel_efficiency", sum(pr.coldMS())/1e3/(wallU*float64(nproc)))

	// Traced passes: the same cells by direct calls, same concurrency.
	mem := startMem()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	var walls, runS []float64
	var stats resultStats
	var runNS, inst, cycles, ff float64
	var firstErr error
	var mu sync.Mutex
	phase := time.Now()
	for i := 0; i == 0 || time.Since(phase).Seconds() < e.seconds*0.4; i++ {
		t0 := time.Now()
		passRun := 0.0
		forEach(len(cells), nproc, func(ci, lane int) {
			c := cells[ci]
			m := w.machine(c.arch)
			d, err := e.direct(c, m, w.size, lane)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				firstErr = err
				return
			}
			passRun += d.run.Seconds()
			runNS += float64(d.run)
			inst += float64(d.res.Committed)
			cycles += float64(d.res.Cycles)
			ff += float64(d.fastForwarded)
			if i == 0 {
				stats.add(d.res)
				e.addDetail(map[string]any{"kind": "cell", "machine": m.Name, "app": c.app.Name,
					"cycles": d.res.Cycles, "committed": d.res.Committed, "run_ms": ms(d.run),
					"host_ns_per_cycle": float64(d.run) / float64(d.res.Cycles)})
			}
		})
		if firstErr != nil {
			return firstErr
		}
		walls = append(walls, time.Since(t0).Seconds())
		runS = append(runS, passRun)
	}
	if err := prof.stop(e); err != nil {
		return err
	}
	mem.emit(e, uint64(inst))
	stats.emit(e)
	e.keep("traced_wall_s", walls)
	e.set("bench.trace_overhead_pct", 100*(median(walls)/wallU-1))
	e.set("workloads.build_ms", median(e.tr.durations("workloads.Build")))
	e.set("core.new_ms", median(e.tr.durations("core.New")))
	e.set("core.run_s", median(runS))
	e.set("core.ns_per_inst", runNS/inst)
	e.set("core.ns_per_cycle", runNS/cycles)
	e.set("core.ff_cycle_share", ff/cycles)

	// interp: the functional engine alone on the same programs, same
	// concurrency, against the timed Run of the last traced pass.
	var fnNS, steps float64
	forEach(len(cells), nproc, func(ci, lane int) {
		c := cells[ci]
		m := w.machine(c.arch)
		p := c.app.Build(m.Threads(), m.Chips, w.size)
		var fr *parallel.FunctionalResult
		var err error
		d := e.tr.timed("parallel.RunFunctional", m.Name+"/"+c.app.Name, -1, lane, func() {
			fr, err = parallel.RunFunctional(p, m.Threads(), 0)
		})
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			firstErr = err
			return
		}
		fnNS += float64(d)
		steps += float64(fr.Steps)
	})
	if firstErr != nil {
		return firstErr
	}
	e.set("interp.functional_kips", steps/(fnNS/1e9)/1e3)
	e.set("interp.share_of_run", fnNS/1e9/runS[len(runS)-1])

	if err := w.harnessProbes(e, suite); err != nil {
		return err
	}
	e.set("memsys.replay_ns_per_access", replayMemory(e, 1))
	if w.highEnd {
		e.set("coherence.replay_ns_per_access", replayMemory(e, 4))
		r, err := w.parallelRatio(e)
		if err != nil {
			return err
		}
		e.set("core.parallel_ratio", r)
	} else {
		e.set("harness.smt2_gain_err_pts", math.Abs(w.smt2Gain()-13))
	}
	return nil
}

// harnessProbes times the Suite itself: a hit on a cached cell, and
// what a sequential Suite pass costs over the direct calls it wraps.
func (w *figsWorkload) harnessProbes(e *env, warm *harness.Suite) error {
	cells := w.cells()
	reps := 2000
	if e.smoke {
		reps = 50
	}
	d := e.tr.timed("harness.Suite.Run(hit)", "all cells", -1, 0, func() {
		for i := 0; i < reps; i++ {
			for _, c := range cells {
				_, _ = warm.Run(c.app, c.arch, w.highEnd)
			}
		}
	})
	e.set("harness.hit_ns", float64(d)/float64(reps*len(cells)))

	// Overhead: the FA8 and SMT2 columns, one cell at a time.
	var sub []cell
	for _, c := range cells {
		if c.arch.Name == "FA8" || c.arch.Name == "SMT2" {
			sub = append(sub, c)
		}
	}
	s := harness.NewSuite(w.size)
	s.SetParallelism(1)
	var viaSuite, viaDirect time.Duration
	for _, c := range sub {
		var err error
		viaSuite += e.tr.timed("harness.Suite.Run", w.machine(c.arch).Name+"/"+c.app.Name, -1, 0, func() {
			_, err = s.Run(c.app, c.arch, w.highEnd)
		})
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := e.direct(c, w.machine(c.arch), w.size, 0); err != nil {
			return err
		}
		viaDirect += time.Since(t0)
	}
	e.set("harness.overhead_ms", ms(viaSuite-viaDirect))

	// obs: one cell with the interval sampler on, against off.
	c := cell{workloads.Ocean(), config.SMT2}
	m := w.machine(c.arch)
	p := c.app.Build(m.Threads(), m.Chips, w.size)
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for rep := 0; rep < 3; rep++ {
		for on := 0; on < 2; on++ {
			sim, err := core.New(m, p)
			if err != nil {
				return err
			}
			if on == 1 {
				sim.EnableMetrics(core.DefaultMetricsInterval, 0)
			}
			d := e.tr.timed([]string{"core.Run(obs off)", "core.Run(obs on)"}[on], m.Name+"/ocean", -1, 0, func() { _, err = sim.Run() })
			if err != nil {
				return err
			}
			best[on] = min(best[on], d)
		}
	}
	e.set("obs.overhead_pct", 100*(float64(best[1])/float64(best[0])-1))
	return nil
}

// parallelRatio is the "measured or removed" evidence for the per-chip
// parallel loop: sequential over Parallel=true run time on the
// high-end SMT2 cells, one at a time (stamped with the host's CPUs in
// the record).
func (w *figsWorkload) parallelRatio(e *env) (float64, error) {
	var seq, par time.Duration
	for _, a := range w.apps {
		m := w.machine(config.SMT2)
		p := a.Build(m.Threads(), m.Chips, w.size)
		for _, parallelLoop := range []bool{false, true} {
			sim, err := core.New(m, p)
			if err != nil {
				return 0, err
			}
			sim.Parallel = parallelLoop
			name := map[bool]string{false: "core.Run(sequential)", true: "core.Run(parallel)"}[parallelLoop]
			d := e.tr.timed(name, m.Name+"/"+a.Name, -1, 0, func() { _, err = sim.Run() })
			if err != nil {
				return 0, err
			}
			if parallelLoop {
				par += d
			} else {
				seq += d
			}
		}
	}
	return float64(seq) / float64(par), nil
}
