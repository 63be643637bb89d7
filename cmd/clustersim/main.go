// Command clustersim runs one simulation — an application on an
// architecture and machine — and prints the paper-style result: cycle
// count, IPC, the §4.1 issue-slot breakdown, and memory/synchronization
// statistics.
//
// Usage:
//
//	clustersim [-arch SMT2] [-app ocean] [-highend] [-size ref] [-v]
//	           [-alloc icount] [-alloc-epoch 10000] [-list-policies]
//	           [-json] [-metrics out.csv] [-metrics-interval 10000]
//	           [-trace t.json] [-trace-format chrome]
//	           [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"clustersmt"
	"clustersmt/internal/alloc"
	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/obs"
	"clustersmt/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("clustersim: ")

	archName := flag.String("arch", "SMT2", "architecture: FA8, FA4, FA2, FA1, SMT8, SMT4, SMT2, SMT1")
	appName := flag.String("app", "ocean", "application: swim, tomcatv, mgrid, vpenta, fmm, ocean (paper) or radix, lu (extras)")
	highEnd := flag.Bool("highend", false, "simulate the 4-chip high-end machine instead of the 1-chip low-end")
	allocPolicy := flag.String("alloc", "", "thread-to-cluster allocation policy (default static; see -list-policies)")
	allocEpoch := flag.Int64("alloc-epoch", 0, "rebalance interval in cycles for dynamic allocation policies (0 = default)")
	listPolicies := flag.Bool("list-policies", false, "list the registered allocation policies and exit")
	sizeName := flag.String("size", "ref", "input size: test or ref")
	verbose := flag.Bool("v", false, "print extended statistics")
	jsonOut := flag.Bool("json", false, "print the full result as JSON instead of the text report (same encoding clusterd serves)")
	tracePath := flag.String("trace", "", "write a pipeline trace to this file")
	traceFormat := flag.String("trace-format", "text", "trace format: text or chrome (trace_event JSON for chrome://tracing)")
	traceFrom := flag.Int64("trace-from", 0, "first cycle to trace")
	traceTo := flag.Int64("trace-to", 0, "last cycle to trace (0 = to the end)")
	metricsPath := flag.String("metrics", "", "write interval metrics to this file")
	metricsInterval := flag.Int64("metrics-interval", core.DefaultMetricsInterval, "cycles per metrics frame")
	metricsFormat := flag.String("metrics-format", "", "metrics format: csv or json (default: by file extension, csv otherwise)")
	metricsRing := flag.Int("metrics-ring", 0, "retain at most this many frames (0 = default ring size; oldest dropped)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if *listPolicies {
		for _, p := range alloc.List() {
			fmt.Printf("%-10s %s\n", p.Name, p.Desc)
		}
		return
	}
	// Fail a typoed -alloc before any simulation work; the error lists
	// every registered policy.
	if _, err := alloc.New(*allocPolicy); err != nil {
		log.Fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	arch, err := clustersmt.ArchByName(*archName)
	if err != nil {
		log.Fatal(err)
	}
	size := clustersmt.SizeRef
	switch strings.ToLower(*sizeName) {
	case "ref":
	case "test":
		size = clustersmt.SizeTest
	default:
		log.Fatalf("unknown size %q (want test or ref)", *sizeName)
	}
	m := clustersmt.LowEnd(arch)
	if *highEnd {
		m = clustersmt.HighEnd(arch)
	}
	m.Alloc = config.AllocConfig{Policy: *allocPolicy, Epoch: *allocEpoch}

	w, err := clustersmt.WorkloadByName(*appName)
	if err != nil {
		log.Fatal(err)
	}
	prg := w.Build(m.Threads(), m.Chips, size)
	sim, err := core.New(m, prg)
	if err != nil {
		log.Fatal(err)
	}
	if *allocPolicy == "oracle" {
		// The oracle is an offline search, not a runtime policy: profile
		// every canonical static assignment over a short prefix and
		// install the winner before the measured run. The search
		// simulators share the one frozen program.
		sm := m
		sm.Alloc = config.AllocConfig{}
		mk := func() (*core.Simulator, error) { return core.New(sm, prg) }
		best, _, err := core.SearchStatic(mk, core.SearchPrefixCycles, core.SearchMaxCandidates)
		if err != nil {
			log.Fatal(err)
		}
		if err := sim.SetAssignment(best); err != nil {
			log.Fatal(err)
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		// The simulator buffers and flushes the trace writer itself.
		switch *traceFormat {
		case "text":
			sim.TraceTo(f, *traceFrom, *traceTo)
		case "chrome":
			sim.TraceChromeTo(f, *traceFrom, *traceTo)
		default:
			log.Fatalf("unknown trace format %q (want text or chrome)", *traceFormat)
		}
	}
	var ring *obs.Ring
	if *metricsPath != "" {
		ring = sim.EnableMetrics(*metricsInterval, *metricsRing)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	if ring != nil {
		if err := writeMetrics(*metricsPath, *metricsFormat, ring); err != nil {
			log.Fatal(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("machine   %s (%d chip(s), %d hardware contexts)\n", m.Name, m.Chips, m.Threads())
	fmt.Printf("app       %s (%s input)\n", *appName, size)
	fmt.Printf("cycles    %d\n", res.Cycles)
	fmt.Printf("instrs    %d (IPC %.2f)\n", res.Committed, res.IPC)
	fmt.Printf("threads   %.2f average running\n", res.AvgRunningThreads)
	fmt.Println("issue-slot breakdown:")
	fractions := res.Slots.Fractions()
	for c := clustersmt.SlotUseful; c <= clustersmt.SlotOther; c++ {
		fmt.Printf("  %-11s %6.2f%%\n", c, 100*fractions[c])
	}
	if !*verbose {
		return
	}
	fmt.Println("memory:")
	fmt.Printf("  loads=%d stores=%d retries=%d tlb-misses=%d\n",
		res.MemStats.Loads, res.MemStats.Stores, res.MemStats.LoadRetries, res.MemStats.TLBMisses)
	for cls, n := range res.MemStats.ByClass {
		if n == 0 {
			continue
		}
		avg := float64(res.MemStats.LatencyByClass[cls]) / float64(n)
		fmt.Printf("  class %d: %d accesses, avg latency %.1f cycles\n", cls, n, avg)
	}
	fmt.Println("coherence:")
	fmt.Printf("  invalidations=%d downgrades=%d writebacks=%d 3-hops=%d net-messages=%d\n",
		res.Invalidations, res.Downgrades, res.Writebacks, res.ThreeHops, res.NetMessages)
	fmt.Println("synchronization:")
	fmt.Printf("  lock-acquires=%d lock-conflicts=%d barrier-episodes=%d\n",
		res.LockAcquires, res.LockConflicts, res.BarrierWaits)
	if res.AllocEpochs > 0 {
		fmt.Println("allocation:")
		fmt.Printf("  policy=%s epochs=%d migrations=%d\n", *allocPolicy, res.AllocEpochs, res.AllocMigrations)
	}
	fmt.Println("front end:")
	fmt.Printf("  branch-mispredict=%.2f%% (%d/%d) btb-mispredict=%d/%d rename-stalls=%d window-stalls=%d forwarded-loads=%d\n",
		100*res.MispredictRate(), res.BranchMispredicts, res.BranchLookups,
		res.BTBMispredicts, res.BTBLookups, res.RenameStalls, res.WindowFullStalls, res.ForwardedLoads)
	st := sim.SleepStats()
	fmt.Printf("simulator:\n  cluster-cycles=%d slept=%d (%.1f%%) machine-jump-cycles=%d sleep-probes=%d failed=%d\n",
		st.ClusterCycles, st.Slept, 100*float64(st.Slept)/float64(max(st.ClusterCycles, 1)), sim.FastForwarded(), st.Probes, st.ProbesFailed)
	if len(res.PerThreadCommitted) <= 32 {
		fmt.Printf("per-thread instructions: %v\n", res.PerThreadCommitted)
	}
	_ = os.Stdout
}

// writeMetrics exports the frame ring to path. The format is csv or
// json, defaulting by file extension (csv unless the path ends in
// .json).
func writeMetrics(path, format string, ring *obs.Ring) error {
	if format == "" {
		format = "csv"
		if strings.HasSuffix(strings.ToLower(path), ".json") {
			format = "json"
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "csv":
		return ring.WriteCSV(f)
	case "json":
		return ring.WriteJSON(f)
	default:
		return fmt.Errorf("unknown metrics format %q (want csv or json)", format)
	}
}
