// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus microbenchmarks of the simulator's building blocks.
// Each BenchmarkFigN op regenerates the complete experiment at the
// reference input size; the printed metrics carry the headline numbers
// (normalized execution times) so `go test -bench .` doubles as the
// reproduction run.
package clustersmt_test

import (
	"context"
	"fmt"
	"testing"

	"clustersmt"
	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/harness"
	"clustersmt/internal/model"
	"clustersmt/internal/workloads"
)

// BenchmarkTable1FunctionalUnits exercises every opcode class through a
// single-thread timing run (the Table 1 latencies in action).
func BenchmarkTable1FunctionalUnits(b *testing.B) {
	p := buildALUKernel()
	for i := 0; i < b.N; i++ {
		res, err := clustersmt.SimulateProgram(clustersmt.LowEnd(clustersmt.FA1), p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "cycles")
	}
}

func buildALUKernel() *clustersmt.Program {
	bld := clustersmt.NewProgram("alu")
	bld.GlobalWords("nthreads", []uint64{1})
	bld.Li(1, 0)
	bld.Li(2, 2000)
	bld.Fli(1, 1.5)
	bld.Fli(2, 0.75)
	bld.CountedLoop(1, 2, func() {
		bld.Add(3, 1, 2)
		bld.Mul(4, 3, 1)
		bld.Div(5, 4, 2)
		bld.Fadd(3, 1, 2)
		bld.Fmul(4, 1, 2)
		bld.Fdiv(5, 1, 2)
	})
	bld.Halt()
	return bld.MustBuild()
}

// BenchmarkTable2Architectures runs one small workload across all seven
// Table 2 presets.
func BenchmarkTable2Architectures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, arch := range clustersmt.Architectures() {
			if _, err := clustersmt.Simulate(clustersmt.LowEnd(arch), "vpenta", clustersmt.SizeTest); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable3MemoryHierarchy stresses the Table 3 hierarchy with
// the memory-bound workload.
func BenchmarkTable3MemoryHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := clustersmt.Simulate(clustersmt.LowEnd(clustersmt.FA1), "ocean", clustersmt.SizeTest)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Slots.Fraction(clustersmt.SlotMemory), "memory-slot-%")
	}
}

// BenchmarkFig1Model evaluates the §2 analytical model over a dense
// sweep of application points and all architectures.
func BenchmarkFig1Model(b *testing.B) {
	procs := make([]model.Proc, 0, 7)
	for _, a := range config.AllArchs {
		procs = append(procs, model.FromArch(a))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0.0
		for t := 0.25; t <= 8; t += 0.25 {
			for ilp := 0.25; ilp <= 8; ilp += 0.25 {
				p := model.Point{Threads: t, ILP: ilp}
				for _, pr := range procs {
					total += pr.Delivered(p)
					_ = pr.Classify(p)
				}
			}
		}
		if total <= 0 {
			b.Fatal("model produced nothing")
		}
	}
}

func benchFigure(b *testing.B, n int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		suite := harness.NewSuite(workloads.SizeRef)
		fig, err := suite.Figure(context.Background(), n)
		if err != nil {
			b.Fatal(err)
		}
		// Surface the headline metric: SMT2's average normalized
		// execution time across applications.
		sum := 0.0
		for _, app := range fig.Apps {
			sum += fig.Get(app, "SMT2").Normalized
		}
		b.ReportMetric(sum/float64(len(fig.Apps)), "SMT2-norm")
		if !testing.Short() && b.N == 1 {
			fmt.Print(fig.Render())
		}
	}
}

// BenchmarkFig4LowEndFAvsSMT2 regenerates Figure 4 (FA8/FA4/FA2/FA1 vs
// SMT2, low-end machine, six applications).
func BenchmarkFig4LowEndFAvsSMT2(b *testing.B) {
	benchFigure(b, 4)
}

// BenchmarkFig5HighEndFAvsSMT2 regenerates Figure 5 (the same
// comparison on the 4-chip machine).
func BenchmarkFig5HighEndFAvsSMT2(b *testing.B) {
	benchFigure(b, 5)
}

// BenchmarkFig6Placement regenerates the Figure 6 measurements (average
// threads on FA8 × per-thread ILP on FA1, both machines).
func BenchmarkFig6Placement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := harness.NewSuite(workloads.SizeRef)
		for _, highEnd := range []bool{false, true} {
			pts, err := suite.Placement(context.Background(), highEnd)
			if err != nil {
				b.Fatal(err)
			}
			if len(pts) != 6 {
				b.Fatal("missing placements")
			}
		}
	}
}

// BenchmarkFig7LowEndSMTs regenerates Figure 7 (SMT8/SMT4/SMT2/SMT1,
// low-end machine).
func BenchmarkFig7LowEndSMTs(b *testing.B) {
	benchFigure(b, 7)
}

// BenchmarkFig8HighEndSMTs regenerates Figure 8 (the same on the 4-chip
// machine).
func BenchmarkFig8HighEndSMTs(b *testing.B) {
	benchFigure(b, 8)
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (simulated instructions per host second) on the densest workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := clustersmt.Simulate(clustersmt.LowEnd(clustersmt.SMT2), "swim", clustersmt.SizeRef)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Committed
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkPerApplication runs each workload once on SMT2 (low-end,
// reference input) as individual sub-benchmarks.
func BenchmarkPerApplication(b *testing.B) {
	for _, w := range clustersmt.Workloads() {
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := clustersmt.Simulate(clustersmt.LowEnd(clustersmt.SMT2), w, clustersmt.SizeRef)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.IPC, "IPC")
			}
		})
	}
}

// runObsOverhead runs the memory-bound paper workload with the
// observability subsystem either fully off (the default: one nil check
// per cycle) or sampling a frame every DefaultMetricsInterval cycles
// into a ring. Results are bit-identical either way (see
// internal/core/obs_test.go); only host time may differ.
func runObsOverhead(sampled bool) (*clustersmt.Result, error) {
	m := clustersmt.LowEnd(clustersmt.SMT2)
	w, err := clustersmt.WorkloadByName("ocean")
	if err != nil {
		return nil, err
	}
	sim, err := core.New(m, w.Build(m.Threads(), m.Chips, clustersmt.SizeRef))
	if err != nil {
		return nil, err
	}
	if sampled {
		sim.EnableMetrics(clustersmt.DefaultMetricsInterval, 0)
	}
	return sim.Run()
}

// BenchmarkObsOverhead measures the cost of interval metrics: the
// disabled leg is the plain simulator (sampling off), the sampled leg
// snapshots a frame every 10k cycles (the spine reads the same cost as
// obs.overhead_pct).
func BenchmarkObsOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		sampled bool
	}{
		{"disabled", false},
		{"sampled", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := runObsOverhead(mode.sampled)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
		})
	}
}

// sweepForkWarmupIters sizes the shared warm-up prefix of the sweep-
// fork benchmark so warm-up dominates each point's run time: ~36k+
// cycles of serial chained FP against a few-hundred-cycle parallel
// body. That ratio is what checkpoint forking amortizes.
const sweepForkWarmupIters = 12000

// sweepForkSpecs is the 16-point (ChainLen x IndepOps) sweep grid of
// the checkpoint-forking benchmark. Every variant differs only in
// post-prefix knobs, so all sixteen share one prefix key and fork from
// a single warmed parent.
func sweepForkSpecs() []clustersmt.SyntheticSpec {
	var specs []clustersmt.SyntheticSpec
	for _, chain := range []int{0, 2, 4, 8} {
		for _, indep := range []int{0, 2, 4, 6} {
			specs = append(specs, clustersmt.SyntheticSpec{
				ChainLen: chain, IndepOps: indep,
				Iters: 192, WarmupIters: sweepForkWarmupIters,
			})
		}
	}
	return specs
}

// sweepForkWarmTarget probes how many cycles the shared warm-up prefix
// lasts and returns a checkpoint cycle proven to still be inside it
// (the probe observed PrefixValid at that exact pause point, and runs
// are deterministic). Probing instead of hardcoding keeps the
// benchmark honest if instruction latencies ever change.
func sweepForkWarmTarget(spec clustersmt.SyntheticSpec) (int64, error) {
	m := clustersmt.LowEnd(clustersmt.SMT2)
	sim, err := core.New(m, clustersmt.Synthetic(spec).Build(m.Threads(), m.Chips, clustersmt.SizeTest))
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
		return 0, fmt.Errorf("warm-up prefix over before cycle %d; enlarge sweepForkWarmupIters", step)
	}
	return last, nil
}

// runForkSweep runs the sweep grid through one fresh Suite on the
// low-end SMT2, warm-started at warmCycles (0 = every point from
// scratch), returning the per-point results and the fork count.
func runForkSweep(specs []clustersmt.SyntheticSpec, warmCycles int64) ([]*clustersmt.Result, int64, error) {
	suite := harness.NewSuite(workloads.SizeTest)
	suite.WarmupCycles = warmCycles
	out := make([]*clustersmt.Result, len(specs))
	for i, spec := range specs {
		r, err := suite.Run(clustersmt.Synthetic(spec), config.SMT2, false)
		if err != nil {
			return nil, 0, err
		}
		out[i] = r
	}
	forks, _ := suite.WarmForks()
	return out, forks, nil
}

// BenchmarkSweepFork compares running a 16-point warm-up-dominated
// sweep with every point simulated from scratch against forking all
// sixteen points from one checkpoint taken inside the shared warm-up
// prefix (results are bit-identical; see internal/harness/warmup_test.go).
// The wall-clock ratio is pure warm-up amortization, so it holds on a
// single-CPU host too (the spine's sweep-fork workload measures it end
// to end).
func BenchmarkSweepFork(b *testing.B) {
	specs := sweepForkSpecs()
	warmAt, err := sweepForkWarmTarget(specs[0])
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		warm int64
	}{
		{"scratch", 0},
		{"fork", warmAt},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := runForkSweep(specs, mode.warm); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkMultiprogram measures multiprogrammed throughput: eight
// independent sequential jobs (the six applications plus two synthetic
// fillers) on each 8-context organization — the workload class of the
// SMT studies the paper builds on.
func BenchmarkMultiprogram(b *testing.B) {
	mix := func() []*clustersmt.Program {
		var js []*clustersmt.Program
		for _, w := range clustersmt.Workloads() {
			js = append(js, w.Build(1, 1, clustersmt.SizeTest))
		}
		js = append(js,
			clustersmt.Synthetic(clustersmt.SyntheticSpec{IndepOps: 6, Iters: 1024}).Build(1, 1, clustersmt.SizeTest),
			clustersmt.Synthetic(clustersmt.SyntheticSpec{ChainLen: 6, Iters: 1024}).Build(1, 1, clustersmt.SizeTest),
		)
		return js
	}
	for _, arch := range []clustersmt.Arch{clustersmt.FA8, clustersmt.SMT4, clustersmt.SMT2, clustersmt.SMT1} {
		b.Run(arch.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := clustersmt.SimulateMultiprogram(clustersmt.LowEnd(arch), mix())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Cycles), "cycles")
			}
		})
	}
}
