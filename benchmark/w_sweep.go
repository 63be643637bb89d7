package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/harness"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// sweepWorkload is sweep-fork: a (ChainLen x IndepOps x MemOps)
// synthetic grid on low-end SMT2 whose points share a 12000-iteration
// warm-up prefix, at a footprint that stays in the modelled L1 and one
// that spills the modelled L2. Every pass builds a fresh Suite per
// footprint with WarmupCycles at a probed prefix-valid cycle and
// Snapshots backed by the benchmark's in-memory store: the first pass
// pays the warm-up and Snapshot, later passes pay core.Restore once
// and ForkProgram per point. The seed shuffles the order of points.
type sweepWorkload struct {
	grids    []sweepGrid
	store    *memStore
	cycles   map[string]int64 // spec name -> cycles of the last pass
	forks    int64            // of the last pass
	restores int64
}

type sweepGrid struct {
	footprintKB int
	specs       []workloads.SyntheticSpec
	warmAt      int64
}

const sweepWarmupIters = 12000

var sweepMachine = config.LowEnd(config.SMT2)

func sweepSpecs(footprintKB int, chains, indeps, memops []int) []workloads.SyntheticSpec {
	var specs []workloads.SyntheticSpec
	for _, c := range chains {
		for _, i := range indeps {
			for _, m := range memops {
				specs = append(specs, workloads.SyntheticSpec{ChainLen: c, IndepOps: i, MemOps: m,
					FootprintKB: footprintKB, Iters: 192, WarmupIters: sweepWarmupIters})
			}
		}
	}
	return specs
}

// memStore is the SnapshotStore the benchmark owns: warmed checkpoints
// stay in memory across the passes of one run.
type memStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (s *memStore) LoadSnapshot(_ context.Context, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.m[key]
	return d, ok
}

func (s *memStore) SaveSnapshot(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = data
}

// warmTarget probes how long the shared warm-up prefix lasts and
// returns a checkpoint cycle observed to be inside it (runs are
// deterministic, so it stays inside).
func warmTarget(spec workloads.SyntheticSpec) (int64, error) {
	sim, err := core.New(sweepMachine, workloads.Synthetic(spec).Build(sweepMachine.Threads(), sweepMachine.Chips, workloads.SizeTest))
	if err != nil {
		return 0, err
	}
	const step = 4096
	last := int64(0)
	for target := int64(step); ; target += step {
		if err := sim.RunTo(target); err != nil {
			return 0, err
		}
		if sim.Done() || !sim.PrefixValid() {
			break
		}
		last = target
	}
	if last == 0 {
		return 0, fmt.Errorf("warm-up prefix over before cycle %d", step)
	}
	return last, nil
}

func (w *sweepWorkload) setUp(e *env) error {
	if err := e.loadGolden(); err != nil {
		return err
	}
	if e.smoke {
		w.grids = []sweepGrid{
			{footprintKB: 16, specs: sweepSpecs(16, []int{0, 4}, []int{0, 4}, []int{1})},
			{footprintKB: 256, specs: sweepSpecs(256, []int{0, 4}, []int{0}, []int{1})},
		}
	} else {
		w.grids = []sweepGrid{
			// 48 + 12 points: with a fifth of them at the slow footprint,
			// the median request is a small point and the 90th
			// percentile sits in the middle of the large ones.
			{footprintKB: 16, specs: sweepSpecs(16, []int{0, 2, 4, 8}, []int{0, 2, 4, 6}, []int{1, 2, 3})},
			{footprintKB: 2048, specs: sweepSpecs(2048, []int{0, 4, 8}, []int{0, 4}, []int{1, 3})},
		}
	}
	for i := range w.grids {
		g := &w.grids[i]
		e.rng.Shuffle(len(g.specs), func(a, b int) { g.specs[a], g.specs[b] = g.specs[b], g.specs[a] })
		at, err := warmTarget(g.specs[0])
		if err != nil {
			return err
		}
		g.warmAt = at
	}
	w.store = &memStore{m: map[string][]byte{}}
	return nil
}

func (w *sweepWorkload) tearDown() {}

// gridPass runs one footprint's points through a fresh Suite on nproc
// goroutines. warm=false simulates every point from scratch.
func (w *sweepWorkload) gridPass(e *env, g sweepGrid, warm bool, pr *passResult) (time.Duration, error) {
	s := harness.NewSuite(workloads.SizeTest)
	if warm {
		s.WarmupCycles = g.warmAt
		s.Snapshots = w.store
	}
	var mu sync.Mutex
	var firstErr error
	t0 := time.Now()
	forEach(len(g.specs), runtime.GOMAXPROCS(0), func(i, _ int) {
		wl := workloads.Synthetic(g.specs[i])
		t := time.Now()
		r, err := s.Run(wl, sweepMachine.Arch, false)
		d := time.Since(t)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			firstErr = err
			return
		}
		e.check(kSweep, wl.Name, r)
		pr.jobs++
		pr.inst += r.Committed
		pr.cold = append(pr.cold, coldSample{wl.Name, ms(d)})
		w.cycles[wl.Name] = r.Cycles
	})
	forks, restores := s.WarmForks()
	w.forks += forks
	w.restores += restores
	return time.Since(t0), firstErr
}

func (w *sweepWorkload) pass(e *env, _ int) (passResult, error) {
	var pr passResult
	w.cycles, w.forks, w.restores = map[string]int64{}, 0, 0
	for _, g := range w.grids {
		// The golden corpus is generated from scratch runs.
		if _, err := w.gridPass(e, g, !e.golden.update, &pr); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// claims: what the warm path promises beyond fork == scratch (which
// the golden corpus checks point by point) — every point was forked,
// each footprint's parent came from the store once the first pass had
// saved it, and a footprint that spills the modelled L2 never takes
// fewer cycles than the same point inside the L1.
func (w *sweepWorkload) claims(e *env) []claim {
	name := func(s workloads.SyntheticSpec) string { return workloads.Synthetic(s).Name }
	points := 0
	var cs []claim
	for _, g := range w.grids {
		points += len(g.specs)
		for _, s := range g.specs {
			small := s
			small.FootprintKB = 16
			if c, ok := w.cycles[name(small)]; ok && g.footprintKB != 16 {
				cs = append(cs, claim{"sweep: " + name(s) + " no faster than at 16 KB", c <= w.cycles[name(s)]})
			}
		}
	}
	return append(cs,
		claim{"sweep: every point forked from a warmed checkpoint", w.forks == int64(points)},
		claim{"sweep: one parent restored per footprint", w.restores == int64(len(w.grids))},
		claim{"sweep: one checkpoint stored per footprint", len(w.store.m) == len(w.grids)})
}

func (w *sweepWorkload) traced(e *env) error {
	nproc := runtime.GOMAXPROCS(0)
	var pr passResult
	w.cycles = map[string]int64{}
	// Two untraced passes: the first fills the snapshot store, the
	// second is the reference for the trace overhead and fork ratios.
	forked := make([]time.Duration, len(w.grids))
	for rep := 0; rep < 2; rep++ {
		w.forks = 0
		for gi, g := range w.grids {
			d, err := w.gridPass(e, g, true, &pr)
			if err != nil {
				return err
			}
			forked[gi] = d
		}
	}
	e.set("harness.warm_forks", float64(w.forks))
	wallU := (forked[0] + forked[1]).Seconds()

	mem := startMem()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	var stats resultStats
	var mu sync.Mutex
	var firstErr error
	var runNS, inst, cycles, snapBytes, wallT float64
	for gi, g := range w.grids {
		id := fmt.Sprintf("footprint %d KB", g.footprintKB)
		root := e.tr.begin("bench.grid", id, -1, 0)
		build := func(s workloads.SyntheticSpec, parent, lane int) *prog.Program {
			var p *prog.Program
			wl := workloads.Synthetic(s)
			e.tr.timed("workloads.Build", wl.Name, parent, lane, func() {
				p = wl.Build(sweepMachine.Threads(), sweepMachine.Chips, workloads.SizeTest)
			})
			return p
		}
		p0 := build(g.specs[0], root, 0)
		var parent *core.Simulator
		var data []byte
		e.tr.timed("core.New+RunTo", id, root, 0, func() {
			if parent, err = core.New(sweepMachine, p0); err == nil {
				err = parent.RunTo(g.warmAt)
			}
		})
		if err != nil {
			return err
		}
		e.tr.timed("core.Snapshot", id, root, 0, func() { data, err = parent.Snapshot() })
		if err != nil {
			return err
		}
		snapBytes += float64(len(data))
		// A warm Suite pass does what is timed from here: one Restore,
		// then build, fork and run per point.
		warm := time.Now()
		e.tr.timed("core.Restore", id, root, 0, func() { parent, err = core.Restore(sweepMachine, p0, data) })
		if err != nil {
			return err
		}
		var forkMu sync.Mutex
		forEach(len(g.specs), nproc, func(i, lane int) {
			name := workloads.Synthetic(g.specs[i]).Name
			pt := e.tr.begin("bench.point", name, root, lane)
			defer e.tr.end(pt)
			p := build(g.specs[i], pt, lane)
			var child *core.Simulator
			var r *core.Result
			var err error
			forkMu.Lock() // ForkProgram mutates the parent's COW bookkeeping
			e.tr.timed("core.ForkProgram", name, pt, lane, func() { child, err = parent.ForkProgram(p) })
			forkMu.Unlock()
			var d time.Duration
			if err == nil {
				d = e.tr.timed("core.Run", name, pt, lane, func() { r, err = child.Run() })
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				firstErr = err
				return
			}
			e.check(kSweep, name, r)
			stats.add(r)
			runNS += float64(d)
			inst += float64(r.Committed)
			cycles += float64(r.Cycles)
			e.addDetail(map[string]any{"kind": "point", "spec": name, "cycles": r.Cycles, "run_ms": ms(d),
				"host_ns_per_cycle": float64(d) / float64(r.Cycles)})
		})
		wallT += time.Since(warm).Seconds()
		if gi == len(w.grids)-1 { // the large footprint
			for rep := 0; rep < 3; rep++ {
				e.tr.timed("prog.Fingerprint+PrefixKey", id, root, 0, func() {
					p0.Fingerprint()
					p0.PrefixKey()
				})
			}
		}
		e.tr.end(root)
		if firstErr != nil {
			return firstErr
		}
	}
	if err := prof.stop(e); err != nil {
		return err
	}
	mem.emit(e, uint64(inst))
	stats.emit(e)

	e.set("bench.trace_overhead_pct", 100*(wallT/wallU-1))
	e.set("workloads.build_ms", median(e.tr.durations("workloads.Build")))
	e.set("prog.fingerprint_ms", median(e.tr.durations("prog.Fingerprint+PrefixKey")))
	e.set("core.snapshot_ms", median(e.tr.durations("core.Snapshot")))
	e.set("core.snapshot_bytes", snapBytes)
	e.set("core.restore_ms", median(e.tr.durations("core.Restore")))
	e.set("core.fork_ms", median(e.tr.durations("core.ForkProgram")))
	e.set("core.run_s", runNS/1e9)
	e.set("core.ns_per_inst", runNS/inst)
	e.set("core.ns_per_cycle", runNS/cycles)

	// Scratch passes, for what forking buys at each footprint.
	for gi, g := range w.grids {
		var scratch time.Duration
		e.tr.timed("harness.Suite.Run(scratch grid)", fmt.Sprintf("footprint %d KB", g.footprintKB), -1, 0, func() {
			scratch, err = w.gridPass(e, g, false, &pr)
		})
		if err != nil {
			return err
		}
		name := "harness.warm_fork_ratio_small"
		if gi == 1 {
			name = "harness.warm_fork_ratio_large"
		}
		e.set(name, float64(scratch)/float64(forked[gi]))
	}
	return nil
}
