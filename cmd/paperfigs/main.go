// Command paperfigs regenerates the paper's evaluation artifacts:
// Tables 1–3 (configuration), Figure 1 (the analytical model), Figures
// 4/5 (FA vs clustered SMT on the low- and high-end machines), Figure 6
// (application placements) and Figures 7/8 (clustered vs centralized
// SMTs). With no flags it regenerates everything.
//
// Usage:
//
//	paperfigs [-size ref] [-only fig4,fig7] [-o report.md]
//	          [-progress] [-metrics metricsdir]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"clustersmt"
	"clustersmt/internal/config"
	"clustersmt/internal/isa"
	"clustersmt/internal/model"
	"clustersmt/internal/version"
	"clustersmt/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")

	sizeName := flag.String("size", "ref", "input size: test or ref")
	only := flag.String("only", "", "comma-separated subset: table1,table2,table3,fig1,fig4,fig5,fig6,fig7,fig8,alloc,conclusion,model,mix")
	outPath := flag.String("o", "", "also write the report to this file")
	bars := flag.Bool("bars", false, "also draw paper-style stacked bars")
	progress := flag.Bool("progress", false, "print a per-run heartbeat to stderr every metrics interval")
	metricsDir := flag.String("metrics", "", "export each run's interval metrics as CSV into this directory")
	metricsInterval := flag.Int64("metrics-interval", clustersmt.DefaultMetricsInterval, "cycles per metrics frame")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
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

	size, err := workloads.ParseSize(*sizeName)
	if err != nil {
		log.Fatal(err)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	// Ctrl-C / SIGTERM cancels in-flight simulations promptly (the
	// suite aborts them via core.Simulator.Interrupt) instead of
	// waiting out whole ref-size runs; a second signal kills outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One suite serves every figure: the run cache shares results across
	// matrices (FA8/SMT8 alias, Figure 6 reuses Figure 4/5 cells).
	suite := clustersmt.NewSuite(size)
	if *metricsDir != "" || *progress {
		suite.MetricsInterval = *metricsInterval
	}
	if *progress {
		suite.OnFrame = func(app, machine string, f clustersmt.MetricsFrame) {
			fmt.Fprintf(os.Stderr, "%-8s %-22s %s\n", app, machine, f.String())
		}
	}
	defer func() {
		if *metricsDir == "" {
			return
		}
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for _, run := range suite.MetricsRuns() {
			// Run keys look like "fmm@low-end/FA1"; flatten both
			// separators so each run is one file in the directory.
			name := strings.NewReplacer("@", "_", "/", "_").Replace(run)
			path := filepath.Join(*metricsDir, name+".csv")
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := suite.Metrics(run).WriteCSV(f); err != nil {
				f.Close()
				log.Fatal(err)
			}
			f.Close()
		}
	}()
	if sel("table1") {
		fmt.Fprintln(out, table1())
	}
	if sel("table2") {
		fmt.Fprintln(out, table2())
	}
	if sel("table3") {
		fmt.Fprintln(out, table3())
	}
	if sel("fig1") {
		fmt.Fprintln(out, fig1())
	}
	for _, n := range []int{4, 5, 7, 8} {
		if !sel(fmt.Sprintf("fig%d", n)) {
			continue
		}
		fig, err := suite.Figure(ctx, n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprint(out, fig.Render())
		if *bars {
			fmt.Fprint(out, fig.RenderBars())
		}
		for _, app := range fig.Apps {
			fmt.Fprintf(out, "%-8s best=%-5s", app, fig.Best(app))
			if bf := fig.BestFA(app); bf != "" {
				fmt.Fprintf(out, " bestFA=%s", bf)
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintln(out)
	}
	if sel("alloc") {
		fig, err := suite.AllocationFigure(ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out, fig.Render())
	}
	if sel("conclusion") {
		for _, highEnd := range []bool{false, true} {
			c, err := suite.Conclusion(ctx, highEnd)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintln(out, c.RenderMatrix())
		}
	}
	if sel("mix") {
		mixOut, err := workloads.MixTable(append(workloads.All(), workloads.Extras()...), 8, size)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "Workload characterization (dynamic instruction mix, 8 threads):\n%s\n", mixOut)
	}
	if sel("model") {
		for _, highEnd := range []bool{false, true} {
			v, err := suite.ValidateModel(ctx, highEnd)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintln(out, v.Render())
		}
	}
	if sel("fig6") {
		for _, highEnd := range []bool{false, true} {
			pts, err := suite.Placement(ctx, highEnd)
			if err != nil {
				log.Fatal(err)
			}
			name := "Figure 6a (low-end)"
			if highEnd {
				name = "Figure 6b (high-end, per-chip threads)"
			}
			fmt.Fprintf(out, "%s:\n%s\n", name, clustersmt.RenderPlacement(pts, model.FromArch(config.SMT2)))
		}
	}
}

func table1() string {
	var b strings.Builder
	b.WriteString("Table 1: functional-unit latencies (cycles)\n")
	rows := []struct {
		unit string
		ops  []isa.Op
	}{
		{"integer", []isa.Op{isa.OpAdd, isa.OpAnd, isa.OpShl, isa.OpMul, isa.OpDiv, isa.OpBeq}},
		{"load/store", []isa.Op{isa.OpLd, isa.OpSt}},
		{"floating point", []isa.Op{isa.OpFadd, isa.OpFmul, isa.OpFdiv}},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-15s", r.unit)
		for _, op := range r.ops {
			inf := isa.InfoFor(op)
			pipe := ""
			if !inf.Pipel {
				pipe = "*"
			}
			fmt.Fprintf(&b, " %s=%d%s", inf.Name, inf.Latency, pipe)
		}
		b.WriteString("\n")
	}
	b.WriteString("  (* = unpipelined)\n")
	return b.String()
}

func table2() string {
	var b strings.Builder
	b.WriteString("Table 2: architectures (per cluster [per chip])\n")
	fmt.Fprintf(&b, "  %-5s %9s %8s %12s %10s %10s\n",
		"arch", "clusters", "issue", "threads", "window", "rename")
	for _, a := range clustersmt.Architectures() {
		fmt.Fprintf(&b, "  %-5s %9d %8d %5d [%2d] %5d [%3d] %4d [%3d]\n",
			a.Name, a.Clusters, a.IssueWidth,
			a.ThreadsPerCluster, a.ThreadsPerChip(),
			a.WindowEntries, a.Clusters*a.WindowEntries,
			a.RenameInt, a.Clusters*a.RenameInt)
	}
	return b.String()
}

func table3() string {
	m := clustersmt.DefaultMem()
	var b strings.Builder
	b.WriteString("Table 3: memory hierarchy (contention-free round trips)\n")
	fmt.Fprintf(&b, "  L1 %dKB %d-way, L2 %dKB %d-way, %dB lines, %d banks, fill %d\n",
		m.L1SizeKB, m.L1Assoc, m.L2SizeKB, m.L2Assoc, m.LineBytes, m.L1Banks, m.FillTime)
	fmt.Fprintf(&b, "  latencies: L1=%d L2=%d local-mem=%d remote-mem=%d remote-L2=%d\n",
		m.L1Latency, m.L2Latency, m.LocalMemLatency, m.RemoteMemLat, m.RemoteL2Lat)
	fmt.Fprintf(&b, "  MSHRs=%d, TLB=%d entries (miss penalty %d)\n",
		m.MSHRs, m.TLBEntries, m.TLBMissPenalty)
	return b.String()
}

func fig1() string {
	var b strings.Builder
	b.WriteString("Figure 1: the model of parallelism\n\n")
	apps := map[string]clustersmt.ModelPoint{"A": {Threads: 5, ILP: 5}}
	for _, a := range []clustersmt.Arch{clustersmt.FA2, clustersmt.SMT2, clustersmt.SMT1} {
		proc := clustersmt.ModelOf(a)
		b.WriteString(clustersmt.ModelChart(proc, apps))
		fmt.Fprintf(&b, "  application A delivered=%.1f region=%s\n\n",
			proc.Delivered(apps["A"]), proc.Classify(apps["A"]))
	}
	b.WriteString("delivered performance for a sweep of application points:\n")
	procs := []clustersmt.ModelProc{
		clustersmt.ModelOf(clustersmt.FA8), clustersmt.ModelOf(clustersmt.FA4),
		clustersmt.ModelOf(clustersmt.FA2), clustersmt.ModelOf(clustersmt.FA1),
		clustersmt.ModelOf(clustersmt.SMT2), clustersmt.ModelOf(clustersmt.SMT1),
	}
	fmt.Fprintf(&b, "  %-12s", "app (T,I)")
	for _, p := range procs {
		fmt.Fprintf(&b, "%7s", p.Name)
	}
	b.WriteString("\n")
	pts := []clustersmt.ModelPoint{
		{Threads: 1, ILP: 6}, {Threads: 2, ILP: 4}, {Threads: 4, ILP: 2.5},
		{Threads: 6, ILP: 1.5}, {Threads: 8, ILP: 1},
	}
	for _, pt := range pts {
		fmt.Fprintf(&b, "  (%3.0f,%4.1f)  ", pt.Threads, pt.ILP)
		for _, p := range procs {
			fmt.Fprintf(&b, "%7.1f", p.Delivered(pt))
		}
		b.WriteString("\n")
	}
	return b.String()
}
