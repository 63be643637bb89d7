// Command sweep maps the §2 (threads × ILP) plane empirically: it runs
// a grid of synthetic workloads across the architectures and prints
// which one wins at each point — the measured counterpart of the
// paper's Figure 1 regions.
//
// All grid cells route through one shared harness.Suite, so every
// (workload, physical configuration) pair simulates at most once even
// when the -archs list aliases silicon (FA8 and SMT8) or a grid row
// repeats a spec, and the whole grid runs concurrently (-parallel
// bounds the simultaneous simulations).
//
// With -warmup-iters the synthetic specs prepend a shared warm-up
// prefix and -warmup-cycles checkpoints it: the suite warms one parent
// per (machine, prefix), then forks every grid cell from it instead of
// re-simulating the warm-up 16 times per architecture (results stay
// bit-identical; see internal/core/snapshot.go).
//
// Usage:
//
//	sweep [-archs FA8,FA4,FA2,FA1,SMT2] [-size test] [-parallel N]
//	      [-warmup-iters N] [-warmup-cycles N]
//	      [-alloc icount] [-alloc-epoch N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"strings"

	"clustersmt"
	"clustersmt/internal/alloc"
	"clustersmt/internal/harness"
	"clustersmt/internal/version"
	"clustersmt/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	archList := flag.String("archs", "FA8,FA4,FA2,FA1,SMT2", "comma-separated architectures to race")
	sizeName := flag.String("size", "test", "input size: test or ref")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max simultaneous simulations")
	warmupIters := flag.Int64("warmup-iters", 0, "prepend a shared warm-up prefix of N serial iterations to every grid cell")
	warmupCycles := flag.Int64("warmup-cycles", 0, "checkpoint the warm-up at this cycle and fork grid cells from it (0 = off)")
	allocPolicy := flag.String("alloc", "", "thread-to-cluster allocation policy for every grid cell (default static)")
	allocEpoch := flag.Int64("alloc-epoch", 0, "rebalance interval in cycles for dynamic allocation policies (0 = default)")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}

	var archs []clustersmt.Arch
	for _, name := range strings.Split(*archList, ",") {
		a, err := clustersmt.ArchByName(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		archs = append(archs, a)
	}
	size, err := workloads.ParseSize(*sizeName)
	if err != nil {
		log.Fatal(err)
	}

	if _, err := alloc.New(*allocPolicy); err != nil {
		log.Fatal(err)
	}
	suite := harness.NewSuite(size)
	suite.SetParallelism(*parallel)
	suite.WarmupCycles = *warmupCycles
	suite.AllocPolicy = *allocPolicy
	suite.AllocEpoch = *allocEpoch

	// Plane axes: ParCap (threads) × ChainLen (inverse ILP).
	caps := []int{1, 2, 4, 0} // 0 = all 8 contexts
	chains := []int{0, 2, 4, 8}

	// The suite's semaphore bounds the real concurrency of the grid and
	// its singleflight deduplicates any cell/arch pairs that resolve to
	// the same physical run (e.g. FA8 and SMT8 both in -archs).
	var grid []clustersmt.Workload
	for _, ch := range chains {
		for _, cp := range caps {
			grid = append(grid, clustersmt.Synthetic(clustersmt.SyntheticSpec{
				ParCap:      cp,
				ChainLen:    ch,
				IndepOps:    6 - min(6, ch),
				Iters:       2048,
				WarmupIters: *warmupIters,
			}))
		}
	}
	res, err := suite.RunMatrixContext(context.Background(), grid, archs, false)
	if err != nil {
		log.Fatal(err)
	}

	// Winners resolve deterministically after the fact: fewest cycles,
	// -archs order breaking ties (the old sequential behavior).
	winners := make([]string, len(grid)) // chain-major, like grid
	for i, w := range grid {
		bestCycles := int64(0)
		for _, a := range archs {
			if c := res[w.Name][a.Name].Cycles; winners[i] == "" || c < bestCycles {
				winners[i], bestCycles = a.Name, c
			}
		}
	}

	fmt.Println("winner at each (threads x ILP) point (rows: dependence chain, columns: parallel width)")
	fmt.Printf("%-18s", "")
	for _, c := range caps {
		label := fmt.Sprintf("par=%d", c)
		if c == 0 {
			label = "par=all"
		}
		fmt.Printf("%10s", label)
	}
	fmt.Println()
	for i, ch := range chains {
		label := fmt.Sprintf("chain=%d (ILP~%s)", ch, ilpLabel(ch))
		fmt.Printf("%-18s", label)
		for _, w := range winners[i*len(caps) : (i+1)*len(caps)] {
			fmt.Printf("%10s", w)
		}
		fmt.Println()
	}
	fmt.Println("\n(the diagonal structure is the paper's Figure 1: narrow points go to wide")
	fmt.Println(" clusters, thready points to many clusters, and the clustered SMT covers both)")
	if *warmupCycles > 0 {
		forks, _ := suite.WarmForks()
		fmt.Printf("(warm-up sharing: %d runs forked from warmed checkpoints)\n", forks)
	}
}

func ilpLabel(chain int) string {
	switch {
	case chain == 0:
		return "high"
	case chain <= 3:
		return "mid"
	default:
		return "low"
	}
}
