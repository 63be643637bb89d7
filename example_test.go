package clustersmt_test

import (
	"fmt"
	"log"
	"math"

	"clustersmt"
)

// ExampleSimulate runs one of the paper's applications on the
// recommended clustered-SMT design point and prints where its issue
// slots went (§4.1).
func ExampleSimulate() {
	res, err := clustersmt.Simulate(clustersmt.LowEnd(clustersmt.SMT2), "vpenta", clustersmt.SizeTest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Committed, "instructions in", res.Cycles, "cycles")
	fractions := res.Slots.Fractions()
	for c := clustersmt.SlotUseful; c <= clustersmt.SlotOther; c++ {
		fmt.Printf("  %-11s %5.1f%%\n", c, 100*fractions[c])
	}
	// Output:
	// 6741 instructions in 1284 cycles
	//   useful       65.6%
	//   fetch         0.5%
	//   sync          1.6%
	//   control       0.2%
	//   data         16.9%
	//   memory       14.1%
	//   structural    1.0%
	//   other         0.0%
}

// Example_archSweep reproduces one column of Figure 4: swim on every
// Table 2 architecture of the low-end machine, normalized to FA8 — the
// U-shape across the FA family, with SMT2 below its best point.
func Example_archSweep() {
	archs := []clustersmt.Arch{
		clustersmt.FA8, clustersmt.FA4, clustersmt.FA2, clustersmt.FA1,
		clustersmt.SMT4, clustersmt.SMT2, clustersmt.SMT1,
	}
	var base int64
	fmt.Printf("%-5s %10s %8s %7s %8s\n", "arch", "cycles", "norm", "IPC", "useful%")
	for _, arch := range archs {
		res, err := clustersmt.Simulate(clustersmt.LowEnd(arch), "swim", clustersmt.SizeRef)
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = res.Cycles
		}
		fmt.Printf("%-5s %10d %7.0f%% %7.2f %7.1f%%\n",
			arch.Name, res.Cycles, 100*float64(res.Cycles)/float64(base),
			res.IPC, 100*res.Slots.Fraction(clustersmt.SlotUseful))
	}
	// Output:
	// arch      cycles     norm     IPC  useful%
	// FA8        33761     100%    3.32    41.6%
	// FA4        18652      55%    6.01    75.1%
	// FA2        22584      67%    4.96    62.0%
	// FA1        38824     115%    2.88    36.0%
	// SMT4       18691      55%    6.01    75.1%
	// SMT2       17711      52%    6.34    79.2%
	// SMT1       19548      58%    5.74    71.8%
}

// ExampleSimulate_highEnd runs ocean on the 4-chip DASH-like machine
// and reports its coherence behaviour — load classes, directory and
// network activity — the machinery behind Figures 5 and 8.
func ExampleSimulate_highEnd() {
	low := clustersmt.LowEnd(clustersmt.SMT2)
	high := clustersmt.HighEnd(clustersmt.SMT2)
	resLow, err := clustersmt.Simulate(low, "ocean", clustersmt.SizeRef)
	if err != nil {
		log.Fatal(err)
	}
	resHigh, err := clustersmt.Simulate(high, "ocean", clustersmt.SizeRef)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("low-end  (1 chip,  %2d threads): %8d cycles, IPC %5.2f\n",
		low.Threads(), resLow.Cycles, resLow.IPC)
	fmt.Printf("high-end (4 chips, %2d threads): %8d cycles, IPC %5.2f  (speedup %.2fx)\n",
		high.Threads(), resHigh.Cycles, resHigh.IPC,
		float64(resLow.Cycles)/float64(resHigh.Cycles))

	fmt.Println("high-end load classes (Table 3 rows):")
	names := []string{"L1 hit", "MSHR merge", "L2 hit", "local memory", "remote memory", "remote L2"}
	for cls, n := range resHigh.MemStats.ByClass {
		if n == 0 {
			continue
		}
		avg := float64(resHigh.MemStats.LatencyByClass[cls]) / float64(n)
		fmt.Printf("  %-14s %8d accesses  avg %6.1f cycles\n", names[cls], n, avg)
	}
	fmt.Printf("invalidations=%d downgrades=%d writebacks=%d 3-hop-interventions=%d\n",
		resHigh.Invalidations, resHigh.Downgrades, resHigh.Writebacks, resHigh.ThreeHops)
	fmt.Printf("network messages=%d, barrier episodes=%d\n", resHigh.NetMessages, resHigh.BarrierWaits)
	// Output:
	// low-end  (1 chip,   8 threads):    25910 cycles, IPC  6.59
	// high-end (4 chips, 32 threads):    11372 cycles, IPC 15.13  (speedup 2.28x)
	// high-end load classes (Table 3 rows):
	//   L1 hit            52447 accesses  avg    1.6 cycles
	//   MSHR merge         2546 accesses  avg   64.6 cycles
	//   local memory        348 accesses  avg   43.1 cycles
	//   remote memory       969 accesses  avg  150.4 cycles
	//   remote L2           199 accesses  avg   84.8 cycles
	// invalidations=203 downgrades=199 writebacks=0 3-hop-interventions=200
	// network messages=1990, barrier episodes=6
}

// ExampleModelOf evaluates the §2 analytical model for an application
// point.
func ExampleModelOf() {
	proc := clustersmt.ModelOf(clustersmt.SMT2)
	app := clustersmt.ModelPoint{Threads: 5, ILP: 1.6}
	fmt.Printf("delivered %.1f slots/cycle, region %v\n", proc.Delivered(app), proc.Classify(app))
	// Output: delivered 8.0 slots/cycle, region optimal
}

// ExampleNewProgram authors and runs a tiny custom program.
func ExampleNewProgram() {
	b := clustersmt.NewProgram("triple")
	b.GlobalWords("nthreads", []uint64{1})
	out := b.Global("out", 1)
	b.Li(1, 14)
	b.Li(2, 3)
	b.Mul(3, 1, 2)
	b.St(3, 0, out)
	b.Halt()
	p := b.MustBuild()

	ref, err := clustersmt.RunFunctional(p, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("out =", ref.ReadWord(p, "out", 0))
	// Output: out = 42
}

// buildDotProduct assembles a parallel dot product of two 512-element
// vectors: each of threads workers sums its slice, then adds its
// partial sum into a global under a lock.
func buildDotProduct(threads int) *clustersmt.Program {
	const n, lockID = 512, 1
	b := clustersmt.NewProgram("dotprod")
	b.GlobalWords("nthreads", []uint64{uint64(threads)})
	b.GlobalWords("nchips", []uint64{1})
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%7) * 0.5
		ys[i] = float64(i%11) * 0.25
	}
	x := b.GlobalFloats("x", xs)
	y := b.GlobalFloats("y", ys)
	b.GlobalFloats("sum", []float64{0})

	// r30 = tid (set by the runtime); registers 1..9 are ours.
	b.Ld(1, 0, b.MustAddr("nthreads"))
	// lo = tid*n/nthreads, hi = (tid+1)*n/nthreads
	b.Li(2, n)
	b.Mul(3, 30, 2)
	b.Div(3, 3, 1)
	b.Addi(4, 30, 1)
	b.Mul(4, 4, 2)
	b.Div(4, 4, 1)
	// Walk [lo*8, hi*8) with a pointer.
	b.Shli(3, 3, 3)
	b.Shli(4, 4, 3)
	b.Fli(1, 0.0) // f1 = partial sum
	b.SteppedLoop(3, 4, 8, func() {
		b.Ldf(2, 3, x)
		b.Ldf(3, 3, y)
		b.Fmul(2, 2, 3)
		b.Fadd(1, 1, 2)
	})
	b.Lock(lockID)
	b.Ldf(4, 0, b.MustAddr("sum"))
	b.Fadd(4, 4, 1)
	b.Stf(4, 0, b.MustAddr("sum"))
	b.Unlock(lockID)
	b.Halt()
	return b.MustBuild()
}

// ExampleSimulateProgram is the workflow for workloads beyond the
// paper's six: author a kernel with the program builder, check it on the
// functional machine against a Go reference, then time it on three
// architectures.
func ExampleSimulateProgram() {
	const threads = 8
	p := buildDotProduct(threads)
	ref, err := clustersmt.RunFunctional(p, threads)
	if err != nil {
		log.Fatal(err)
	}
	got, want := ref.ReadFloat(p, "sum", 0), 0.0
	for i := 0; i < 512; i++ {
		want += float64(i%7) * 0.5 * float64(i%11) * 0.25
	}
	if math.Abs(got-want) > 1e-9 {
		log.Fatalf("kernel is wrong: got %g, want %g", got, want)
	}
	fmt.Printf("dot product = %g (%d instructions)\n", got, ref.Steps)

	fmt.Printf("%-5s %8s %7s %8s %8s\n", "arch", "cycles", "IPC", "useful%", "sync%")
	for _, arch := range []clustersmt.Arch{clustersmt.FA8, clustersmt.FA1, clustersmt.SMT2} {
		m := clustersmt.LowEnd(arch)
		res, err := clustersmt.SimulateProgram(m, buildDotProduct(m.Threads()))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s %8d %7.2f %7.1f%% %7.1f%%\n",
			arch.Name, res.Cycles, res.IPC,
			100*res.Slots.Fraction(clustersmt.SlotUseful),
			100*res.Slots.Fraction(clustersmt.SlotSync))
	}
	// Output:
	// dot product = 950.875 (3208 instructions)
	// arch    cycles     IPC  useful%    sync%
	// FA8        808    3.97    49.6%     0.1%
	// FA1       1197    2.58    32.3%     0.0%
	// SMT2       733    4.38    54.7%     0.0%
}

// ExampleSimulateMultiprogram runs eight independent sequential jobs,
// one per hardware context in its own address space, on the four
// 8-context organizations: FA8 pins one job per 1-issue core, the SMTs
// share issue slots across jobs.
func ExampleSimulateMultiprogram() {
	fmt.Printf("%-5s %10s %8s %9s\n", "arch", "cycles", "IPC", "useful%")
	var base int64
	for _, arch := range []clustersmt.Arch{clustersmt.FA8, clustersmt.SMT4, clustersmt.SMT2, clustersmt.SMT1} {
		// The six applications as single-thread jobs plus two synthetic
		// fillers, built per run: a simulator consumes its programs.
		var jobs []*clustersmt.Program
		for _, w := range clustersmt.Workloads() {
			jobs = append(jobs, w.Build(1, 1, clustersmt.SizeTest))
		}
		jobs = append(jobs,
			clustersmt.Synthetic(clustersmt.SyntheticSpec{IndepOps: 6, Iters: 1024}).Build(1, 1, clustersmt.SizeTest),
			clustersmt.Synthetic(clustersmt.SyntheticSpec{ChainLen: 6, Iters: 1024}).Build(1, 1, clustersmt.SizeTest),
		)
		res, err := clustersmt.SimulateMultiprogram(clustersmt.LowEnd(arch), jobs)
		if err != nil {
			log.Fatal(err)
		}
		if base == 0 {
			base = res.Cycles
		}
		fmt.Printf("%-5s %10d %8.2f %8.1f%%  (%.0f%% of FA8)\n",
			arch.Name, res.Cycles, res.IPC,
			100*res.Slots.Fraction(clustersmt.SlotUseful),
			100*float64(res.Cycles)/float64(base))
	}
	// Output:
	// arch      cycles      IPC   useful%
	// FA8        48545     3.24     40.6%  (100% of FA8)
	// SMT4       34236     4.60     57.5%  (71% of FA8)
	// SMT2       29252     5.38     67.3%  (60% of FA8)
	// SMT1       31105     5.06     63.3%  (64% of FA8)
}

// ExampleSynthetic places a generated workload on the (threads × ILP)
// plane and simulates it.
func ExampleSynthetic() {
	w := clustersmt.Synthetic(clustersmt.SyntheticSpec{ParCap: 2, ChainLen: 4, Iters: 256})
	res, err := clustersmt.Simulate(clustersmt.LowEnd(clustersmt.FA8), w, clustersmt.SizeTest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Committed > 0)
	// Output: true
}

// Example_planeSweep walks the §2 (threads × ILP) plane with synthetic
// workloads and prints, per point, the architecture the analytical
// model picks beside the one that wins in simulation — Figure 1
// measured.
func Example_planeSweep() {
	archs := []clustersmt.Arch{clustersmt.FA8, clustersmt.FA2, clustersmt.FA1, clustersmt.SMT2}
	points := []struct {
		label string
		spec  clustersmt.SyntheticSpec
		model clustersmt.ModelPoint
	}{
		{"1 thread, high ILP", clustersmt.SyntheticSpec{ParCap: 1, IndepOps: 10, Iters: 2048}, clustersmt.ModelPoint{Threads: 1, ILP: 6}},
		{"2 threads, mid ILP", clustersmt.SyntheticSpec{ParCap: 2, IndepOps: 4, ChainLen: 2, Iters: 2048}, clustersmt.ModelPoint{Threads: 2, ILP: 4}},
		{"4 threads, mid ILP", clustersmt.SyntheticSpec{ParCap: 4, ChainLen: 3, IndepOps: 2, Iters: 2048}, clustersmt.ModelPoint{Threads: 4, ILP: 2.5}},
		{"8 threads, low ILP", clustersmt.SyntheticSpec{ChainLen: 8, Iters: 2048}, clustersmt.ModelPoint{Threads: 8, ILP: 1.2}},
	}
	fmt.Printf("%-22s %10s %10s", "point", "model-best", "sim-best")
	for _, a := range archs {
		fmt.Printf("%8s", a.Name)
	}
	fmt.Println()
	for _, pt := range points {
		w := clustersmt.Synthetic(pt.spec)
		best, bestCycles := "", int64(0)
		modelBest, bestD := "", 0.0
		cycles := make([]int64, len(archs))
		for i, a := range archs {
			res, err := clustersmt.Simulate(clustersmt.LowEnd(a), w, clustersmt.SizeRef)
			if err != nil {
				log.Fatal(err)
			}
			cycles[i] = res.Cycles
			if best == "" || res.Cycles < bestCycles {
				best, bestCycles = a.Name, res.Cycles
			}
			if d := clustersmt.ModelOf(a).Delivered(pt.model); d > bestD {
				modelBest, bestD = a.Name, d
			}
		}
		fmt.Printf("%-22s %10s %10s", pt.label, modelBest, best)
		for _, c := range cycles {
			fmt.Printf("%8d", c)
		}
		fmt.Println()
	}
	// Output:
	// point                  model-best   sim-best     FA8     FA2     FA1    SMT2
	// 1 thread, high ILP            FA1        FA1   77073   37846   36928   37879
	// 2 threads, mid ILP            FA2        FA2   34747   18896   36907   18928
	// 4 threads, mid ILP           SMT2       SMT2   18537   20871   41032   11971
	// 8 threads, low ILP            FA8       SMT2   15677   51286  102408   13693
}
