package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// Workload and metric declarations. BENCHMARK.json at the repository
// root is exactly what `go run ./benchmark -list` prints from these
// tables (bench_test.go holds the two together); later issues refer to
// workloads and metrics by the names fixed here.

// Workload names.
const (
	wFigsLow   = "figs-lowend"
	wFigsHigh  = "figs-highend"
	wMultiprog = "multiprog-alloc"
	wSweep     = "sweep-fork"
	wServe     = "serve-mixed"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	new  func() workload
}

var workloadDefs = []workloadDef{
	{wFigsLow, "the 42 ref-size cells of Figs. 4/7 on the 1-chip machine through harness.Suite: core and interp do the work, directory and interconnect idle, the no-change side of a coherence optimisation",
		func() workload { return &figsWorkload{highEnd: false} }},
	{wFigsHigh, "the same 42 cells on the 4-chip 32-context machine (Figs. 5/8): coherence, interconnect, MSHR pressure and fast-forward carry visible work here and almost none on figs-lowend",
		func() workload { return &figsWorkload{highEnd: true} }},
	{wMultiprog, "alloc-figure rows low-end/SMT2 and high-end/SMT2 through core.NewMulti and SearchStatic: private address spaces, ~80 constructions and 20k-cycle prefixes, epoch rebalancing and migration",
		func() workload { return &multiprogWorkload{} }},
	{wSweep, "synthetic grid forked from warmed checkpoints at a 16 KB (in L1) and a 2048 KB (spills the L2) footprint: restore, fork, COW memory and prog fingerprints dominate, cycle simulation is small",
		func() workload { return &sweepWorkload{} }},
	{wServe, "in-process clusterd over loopback HTTP, nproc closed-loop clients, seeded mix of cold synth jobs, memory-tier hits and disk-tier revisits: service, hashing, JSON, cache and telemetry beside core",
		func() workload { return &serveWorkload{} }},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// On lists the workloads a per-layer metric is measured on (nil =
	// all five); it reads 0 on the others, because the driver wants
	// every per-layer metric from every traced run.
	On   []string `json:"-"`
	Help string   `json:"-"`
}

func (m metricDef) appliesTo(w string) bool {
	if m.On == nil {
		return true
	}
	for _, o := range m.On {
		if o == w {
			return true
		}
	}
	return false
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the simulator or of clusterd
// sees. Every workload reports every one (a "job" is one simulation
// request: a figure cell, an allocation column, a sweep point, an HTTP
// job), none can read 0, and Bound is the share of the parent's median
// by which it may worsen. Every timing sits at the contract's cap of
// 0.25: quartile spreads over ten seeds on the 2-CPU reference host are
// 2-7 %, but the host itself drifts by up to 20 % between quarter-hours
// (README.md, "Steadiness"), and a bound inside that drift would refuse
// unchanged code.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Help: "median of three set-ups: golden load, program builds, process warm-up, server start and hot-set warm"},
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25, Help: "median wall time of one pass of the workload's fixed work (host time)"},
	{Name: "cpu_s", Unit: "s", Better: lower, Bound: 0.25, Help: "median user+sys CPU time of one pass (getrusage)"},
	{Name: "sim_kips", Unit: "kinst/s", Better: higher, Bound: 0.25, Help: "median over passes of thousand committed simulated instructions per host second"},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25, Help: "process VmHWM after the measured phase"},
	{Name: "jobs_per_s", Unit: "1/s", Better: higher, Bound: 0.25, Help: "median over passes of simulation requests completed per host second"},
	{Name: "cold_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Help: "median latency of a request that had to simulate (cell, column, forked point, cold job; a repeated request counts once, at its median over passes)"},
	{Name: "cold_p90_ms", Unit: "ms", Better: lower, Bound: 0.25, Help: "90th percentile of the same latency; p99s are layer metrics"},
	{Name: "claims_held", Unit: "count", Better: higher, Bound: 0.01, Help: "accuracy beside every speed: scorecard claims (figs), EXPERIMENTS.md table cycles and orderings (multiprog), warm-path promises (sweep), service contract (serve) that hold"},
}

var (
	onFigs      = []string{wFigsLow, wFigsHigh}
	onSim       = []string{wFigsLow, wFigsHigh, wMultiprog, wSweep}
	onDirect    = []string{wFigsLow, wFigsHigh, wMultiprog}
	onBuilds    = []string{wFigsLow, wFigsHigh, wSweep, wServe}
	onMultiprog = []string{wMultiprog}
	onSweep     = []string{wSweep}
	onServe     = []string{wServe}
	onHigh      = []string{wFigsHigh}
)

// perLayer are the traced run's numbers, one group per package. Each
// Help names the call timed and the end-to-end metric it should move.
var perLayer = []metricDef{
	{Name: "workloads.build_ms", Unit: "ms", Better: lower, On: onBuilds, Help: "median Workload.Build -> cold_p50_ms on serve-mixed, negligible on figs"},
	{Name: "prog.fingerprint_ms", Unit: "ms", Better: lower, On: onSweep, Help: "median Program.Fingerprint+PrefixKey at the large footprint -> wall_s on sweep-fork only"},
	{Name: "interp.functional_kips", Unit: "kinst/s", Better: higher, On: onFigs, Help: "parallel.RunFunctional over the cells' programs: ceiling for sim_kips"},
	{Name: "interp.share_of_run", Unit: "share", Better: lower, On: onFigs, Help: "functional time over Simulator.Run time for the same cells"},
	{Name: "core.new_ms", Unit: "ms", Better: lower, On: onDirect, Help: "median core.New/NewMulti -> wall_s on multiprog-alloc, cold_p50_ms"},
	{Name: "core.run_s", Unit: "s", Better: lower, On: onSim, Help: "sum of Simulator.Run time in one traced pass -> wall_s"},
	{Name: "core.ns_per_inst", Unit: "ns", Better: lower, On: onSim, Help: "Run host ns per committed instruction -> sim_kips"},
	{Name: "core.ns_per_cycle", Unit: "ns", Better: lower, On: onSim, Help: "Run host ns per simulated cycle -> sim_kips"},
	{Name: "core.ff_cycle_share", Unit: "share", Better: higher, On: onDirect, Help: "FastForwarded()/cycles, an exact count"},
	{Name: "core.search_s", Unit: "s", Better: lower, On: onMultiprog, Help: "core.SearchStatic per pass -> wall_s on multiprog-alloc only"},
	{Name: "core.snapshot_ms", Unit: "ms", Better: lower, On: onSweep, Help: "median Simulator.Snapshot -> wall_s on sweep-fork"},
	{Name: "core.snapshot_bytes", Unit: "bytes", Better: lower, On: onSweep, Help: "sum of the two warmed checkpoints, an exact count"},
	{Name: "core.restore_ms", Unit: "ms", Better: lower, On: onSweep, Help: "median core.Restore -> wall_s on sweep-fork"},
	{Name: "core.fork_ms", Unit: "ms", Better: lower, On: onSweep, Help: "median Simulator.ForkProgram -> wall_s on sweep-fork"},
	{Name: "core.parallel_ratio", Unit: "ratio", Better: higher, On: onHigh, Help: "sequential over Parallel=true run time on the high-end SMT2 cells; moves nothing end to end today"},
	{Name: "memsys.l1_miss_rate", Unit: "share", Better: lower, Help: "loads not served by L1 or an MSHR merge, exact; must not change under a speed-only PR"},
	{Name: "memsys.l2_miss_rate", Unit: "share", Better: lower, Help: "L1 misses that leave the chip's L2, exact"},
	{Name: "memsys.load_retry_rate", Unit: "share", Better: lower, Help: "MSHR-full refusals per load, exact"},
	{Name: "coherence.remote_share", Unit: "share", Better: lower, Help: "loads served by remote memory or a remote L2, exact"},
	{Name: "coherence.invalidations_per_kinst", Unit: "1/kinst", Better: lower, Help: "directory invalidations per thousand instructions, exact"},
	{Name: "interconnect.messages_per_kinst", Unit: "1/kinst", Better: lower, Help: "network messages per thousand instructions, exact"},
	{Name: "stats.useful_slot_share", Unit: "share", Better: higher, Help: "useful issue slots over all slots, exact"},
	{Name: "memsys.replay_ns_per_access", Unit: "ns", Better: lower, On: onFigs, Help: "seeded trace through a 1-chip coherence.System Load/Store -> sim_kips on both figs"},
	{Name: "coherence.replay_ns_per_access", Unit: "ns", Better: lower, On: onHigh, Help: "4 chips, half the lines shared -> sim_kips on figs-highend only"},
	{Name: "alloc.epochs", Unit: "count", Better: lower, On: onMultiprog, Help: "epoch boundaries evaluated in one pass, exact"},
	{Name: "alloc.migrations", Unit: "count", Better: lower, On: onMultiprog, Help: "accepted migrations in one pass, exact"},
	{Name: "alloc.dynamic_ns_per_cycle", Unit: "ns", Better: lower, On: onMultiprog, Help: "icount/symbiosis host ns per cycle, against static's core.ns_per_cycle -> wall_s"},
	{Name: "harness.hit_ns", Unit: "ns", Better: lower, On: onFigs, Help: "Suite.Run on a cached cell"},
	{Name: "harness.overhead_ms", Unit: "ms", Better: lower, On: onFigs, Help: "sequential Suite pass minus direct build+new+run over the same 12 cells -> wall_s on figs"},
	{Name: "harness.parallel_efficiency", Unit: "share", Better: higher, On: onFigs, Help: "sum of cell time over (wall x nproc) for the Suite pass"},
	{Name: "harness.warm_fork_ratio_small", Unit: "ratio", Better: higher, On: onSweep, Help: "scratch over forked wall, 16 KB footprint -> wall_s on sweep-fork"},
	{Name: "harness.warm_fork_ratio_large", Unit: "ratio", Better: higher, On: onSweep, Help: "scratch over forked wall, 2048 KB footprint"},
	{Name: "harness.warm_forks", Unit: "count", Better: higher, On: onSweep, Help: "forks per Suite pass, exact"},
	{Name: "harness.smt2_gain_err_pts", Unit: "points", Better: lower, On: []string{wFigsLow}, Help: "|measured - 13| points of SMT2's gain over the best FA (Fig. 4)"},
	{Name: "config.hash_ns", Unit: "ns", Better: lower, On: onServe, Help: "Machine.Hash -> service.hot_p50_ms"},
	{Name: "service.hot_p50_ms", Unit: "ms", Better: lower, On: onServe, Help: "client submit->result of a memory-tier hit"},
	{Name: "service.hot_p99_ms", Unit: "ms", Better: lower, On: onServe, Help: "its 99th percentile"},
	{Name: "service.cold_p99_ms", Unit: "ms", Better: lower, On: onServe, Help: "99th percentile of a cold job"},
	{Name: "service.disk_hit_p50_ms", Unit: "ms", Better: lower, On: onServe, Help: "client submit->result of a disk-tier revisit"},
	{Name: "service.submit_p50_ms", Unit: "ms", Better: lower, On: onServe, Help: "client POST /v1/jobs span of cold jobs"},
	{Name: "service.wait_p50_ms", Unit: "ms", Better: lower, On: onServe, Help: "client GET ?wait= span of cold jobs"},
	{Name: "service.queue_wait_p50_ms", Unit: "ms", Better: lower, On: onServe, Help: "daemon histogram clusterd_job_queue_wait_seconds, factor-2 buckets"},
	{Name: "service.simulate_p50_ms", Unit: "ms", Better: lower, On: onServe, Help: "daemon histogram clusterd_simulate_seconds"},
	{Name: "service.server_e2e_p50_ms", Unit: "ms", Better: lower, On: onServe, Help: "extent of the daemon's spans for sampled cold jobs (GET /v1/trace/{id}?format=spans)"},
	{Name: "service.client_server_gap_ms", Unit: "ms", Better: lower, On: onServe, Help: "client latency minus server extent for the same sampled jobs: the HTTP+codec share"},
	{Name: "service.cache_put_ms", Unit: "ms", Better: lower, On: onServe, Help: "direct Cache.Put with a disk tier"},
	{Name: "service.cache_get_mem_ns", Unit: "ns", Better: lower, On: onServe, Help: "direct Cache.Get from the LRU"},
	{Name: "service.cache_get_disk_ms", Unit: "ms", Better: lower, On: onServe, Help: "direct Cache.Get from the disk tier"},
	{Name: "service.mem_hits", Unit: "count", Better: higher, On: onServe, Help: "clusterd_cache_hits{tier=memory} at the end of the run"},
	{Name: "service.disk_hits", Unit: "count", Better: higher, On: onServe, Help: "clusterd_cache_hits{tier=disk}"},
	{Name: "service.rejected", Unit: "count", Better: lower, On: onServe, Help: "clusterd_jobs_rejected; expect 0"},
	{Name: "service.resp_bytes", Unit: "bytes", Better: lower, On: onServe, Help: "median response body of a completed job"},
	{Name: "telemetry.scrape_ms", Unit: "ms", Better: lower, On: onServe, Help: "median GET /metrics"},
	{Name: "telemetry.scrape_bytes", Unit: "bytes", Better: lower, On: onServe, Help: "its body size"},
	{Name: "telemetry.spans_dropped", Unit: "count", Better: lower, On: onServe, Help: "clusterd_trace_spans_dropped"},
	{Name: "telemetry.overhead_pct", Unit: "%", Better: lower, On: onServe, Help: "short job list with telemetry on over DisableTelemetry; expected about 0"},
	{Name: "obs.overhead_pct", Unit: "%", Better: lower, On: onFigs, Help: "one cell with EnableMetrics over without; expected about 0"},
	{Name: "runtime.mallocs_per_kinst", Unit: "1/kinst", Better: lower, Help: "runtime.MemStats.Mallocs delta per thousand instructions over the traced phase"},
	{Name: "runtime.alloc_bytes_per_inst", Unit: "bytes", Better: lower, Help: "TotalAlloc delta per instruction"},
	{Name: "runtime.gc_count", Unit: "count", Better: lower, Help: "NumGC delta"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower, Help: "PauseTotalNs delta"},
	{Name: "cpu_share.core", Unit: "share", Better: lower},
	{Name: "cpu_share.interp", Unit: "share", Better: lower},
	{Name: "cpu_share.memsys", Unit: "share", Better: lower},
	{Name: "cpu_share.coherence", Unit: "share", Better: lower},
	{Name: "cpu_share.interconnect", Unit: "share", Better: lower},
	{Name: "cpu_share.parallel", Unit: "share", Better: lower},
	{Name: "cpu_share.prog", Unit: "share", Better: lower},
	{Name: "cpu_share.stats", Unit: "share", Better: lower},
	{Name: "cpu_share.alloc", Unit: "share", Better: lower},
	{Name: "cpu_share.harness", Unit: "share", Better: lower},
	{Name: "cpu_share.service", Unit: "share", Better: lower},
	{Name: "cpu_share.telemetry", Unit: "share", Better: lower},
	{Name: "cpu_share.snap", Unit: "share", Better: lower},
	{Name: "cpu_share.std-net-json", Unit: "share", Better: lower},
	{Name: "cpu_share.runtime-gc", Unit: "share", Better: lower},
	{Name: "cpu_share.runtime-malloc", Unit: "share", Better: lower},
	{Name: "cpu_share.other", Unit: "share", Better: lower},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower, Help: "traced pass wall over untraced pass wall, same process"},
	{Name: "bench.fail_share", Unit: "share", Better: lower, Help: "failed over attempted operations; must be 0"},
	{Name: "bench.golden_mismatches", Unit: "count", Better: lower, Help: "results whose digest differs from benchmark/golden; must be 0"},
	{Name: "bench.spans", Unit: "count", Better: higher, Help: "spans recorded by the traced run"},
}

// cpuShareLayers are the cpu_share.* suffixes in declaration order.
var cpuShareLayers = []string{"core", "interp", "memsys", "coherence", "interconnect", "parallel", "prog",
	"stats", "alloc", "harness", "service", "telemetry", "snap", "std-net-json", "runtime-gc", "runtime-malloc", "other"}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 15

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// benchmarkJSON renders the BENCHMARK.json the driver's contract asks
// for, from the tables above.
func benchmarkJSON() []byte {
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layer, len(perLayer))
	for i, m := range perLayer {
		layers[i] = layer{m.Name, m.Unit, m.Better}
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{[]string{"go", "run", "./benchmark"}, []string{"benchmark"}, runSeconds, workloadDefs, endToEnd, layers}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("benchmark: render BENCHMARK.json: %v", err))
	}
	return append(out, '\n')
}
