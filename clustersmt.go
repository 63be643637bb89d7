// Package clustersmt is a from-scratch reproduction of Krishnan &
// Torrellas, "A Clustered Approach to Multithreaded Processors"
// (IPPS/SPDP 1998): a cycle-level, execution-driven simulator for
// fixed-assignment (FA), clustered-SMT and centralized-SMT chip
// multiprocessors, together with the paper's six parallel workloads,
// its analytical model of parallelism, and a harness that regenerates
// every figure of its evaluation.
//
// The package is a thin facade over the internal implementation:
//
//   - Architectures: the seven Table 2 chip organizations (FA8 … SMT1).
//   - Machines: LowEnd (one chip) and HighEnd (four chips under
//     DASH-like directory coherence).
//   - Workloads: swim, tomcatv, mgrid, vpenta, fmm, ocean — kernels in
//     the bundled RISC ISA calibrated to the paper's Figure 6 points.
//   - Simulate: run one (workload × machine) simulation and get the
//     cycle count plus the §4.1 issue-slot breakdown.
//   - Suite: run and cache experiment matrices; regenerate Figures
//     4, 5, 7 and 8 and the Figure 6 placements.
//   - Model: the §2 analytical model relating thread-level and
//     instruction-level parallelism.
//
// Quickstart:
//
//	res, err := clustersmt.Simulate(clustersmt.LowEnd(clustersmt.SMT2), "ocean", clustersmt.SizeRef)
//	if err != nil { ... }
//	fmt.Println(res.Cycles, res.IPC)
package clustersmt

import (
	"fmt"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/harness"
	"clustersmt/internal/model"
	"clustersmt/internal/obs"
	"clustersmt/internal/parallel"
	"clustersmt/internal/prog"
	"clustersmt/internal/stats"
	"clustersmt/internal/workloads"
)

// Arch is a chip organization (Table 2 of the paper).
type Arch = config.Arch

// Machine is a full system: chips × architecture × memory hierarchy.
type Machine = config.Machine

// MemConfig is the Table 3 memory-hierarchy configuration.
type MemConfig = config.MemConfig

// Result is the outcome of one simulation: cycles, committed
// instructions, IPC, the issue-slot breakdown and memory statistics.
type Result = core.Result

// Simulator is one configured simulation instance. Most callers should
// use Simulate / SimulateProgram; the explicit form exposes pre-run
// knobs (MaxCycles, Interrupt, SetICountFetch) and post-run
// inspection (Mem, MemSystem, FastForwarded, SleepStats).
type Simulator = core.Simulator

// NewSimulator builds a simulator for machine m running program p, one
// software thread per hardware context, without running it.
func NewSimulator(m Machine, p *Program) (*Simulator, error) {
	return core.New(m, p)
}

// Restore rebuilds a runnable simulator from a Simulator.Snapshot
// payload, validating it against the machine and program before any
// state is constructed (see DESIGN.md §9 for the format). Typed
// failures are the re-exported ErrSnapshot* sentinels.
func Restore(m Machine, p *Program, data []byte) (*Simulator, error) {
	return core.Restore(m, p, data)
}

// Snapshot/Restore error sentinels, re-exported from the core.
var (
	ErrSnapshotVersion     = core.ErrSnapshotVersion
	ErrSnapshotTruncated   = core.ErrSnapshotTruncated
	ErrSnapshotCorrupt     = core.ErrSnapshotCorrupt
	ErrSnapshotMismatch    = core.ErrSnapshotMismatch
	ErrSnapshotUnsupported = core.ErrSnapshotUnsupported
)

// Workload is one of the paper's six applications.
type Workload = workloads.Workload

// Size selects workload input scale.
type Size = workloads.Size

// Input scales: SizeTest for fast runs, SizeRef for the paper figures.
const (
	SizeTest = workloads.SizeTest
	SizeRef  = workloads.SizeRef
)

// The seven architectures of Table 2. SMT8 is the clustered-SMT alias
// of FA8 (§5.2).
var (
	FA8  = config.FA8
	FA4  = config.FA4
	FA2  = config.FA2
	FA1  = config.FA1
	SMT8 = config.SMT8
	SMT4 = config.SMT4
	SMT2 = config.SMT2
	SMT1 = config.SMT1
)

// Architectures returns every distinct Table 2 organization.
func Architectures() []Arch { return config.AllArchs }

// ArchByName resolves a Table 2 name ("FA8" … "SMT1", "SMT8").
func ArchByName(name string) (Arch, error) { return config.ArchByName(name) }

// LowEnd returns the single-chip workstation machine of §5.
func LowEnd(a Arch) Machine { return config.LowEnd(a) }

// HighEnd returns the 4-chip DASH-like multiprocessor of §5.
func HighEnd(a Arch) Machine { return config.HighEnd(a) }

// DefaultMem returns the Table 3 memory configuration.
func DefaultMem() MemConfig { return config.DefaultMem() }

// Workloads returns the six applications in the paper's order.
func Workloads() []Workload { return workloads.All() }

// WorkloadExtras returns the bonus workloads beyond the paper's six
// (radix, lu) — usable everywhere a paper workload is, but not part of
// the figure reproductions.
func WorkloadExtras() []Workload { return workloads.Extras() }

// SyntheticSpec parameterizes a generated workload on the §2
// (threads × ILP) plane; see Synthetic.
type SyntheticSpec = workloads.SyntheticSpec

// Synthetic builds a parameterized workload — the generator behind
// sweep experiments beyond the paper's six applications.
func Synthetic(spec SyntheticSpec) Workload { return workloads.Synthetic(spec) }

// WorkloadByName resolves an application by name.
func WorkloadByName(name string) (Workload, error) { return workloads.ByName(name) }

// Simulate runs workload app on machine m at the given input size and
// returns the result. app may be a name ("swim") or a Workload.
func Simulate[A string | Workload](m Machine, app A, size Size) (*Result, error) {
	var w Workload
	switch v := any(app).(type) {
	case string:
		var err error
		w, err = workloads.ByName(v)
		if err != nil {
			return nil, err
		}
	case Workload:
		w = v
	}
	p := w.Build(m.Threads(), m.Chips, size)
	sim, err := core.New(m, p)
	if err != nil {
		return nil, fmt.Errorf("clustersmt: %w", err)
	}
	return sim.Run()
}

// Program is an assembled program in the bundled RISC ISA.
type Program = prog.Program

// ProgramBuilder authors programs in the bundled ISA: an assembler
// with labels, loop helpers, global data and synchronization ops. See
// examples/customkernel for a complete kernel written against it.
type ProgramBuilder = prog.Builder

// NewProgram returns an empty ProgramBuilder for a program with the
// given name.
func NewProgram(name string) *ProgramBuilder { return prog.NewBuilder(name) }

// SimulateProgram runs an assembled program on machine m with one
// software thread per hardware context.
func SimulateProgram(m Machine, p *Program) (*Result, error) {
	sim, err := core.New(m, p)
	if err != nil {
		return nil, fmt.Errorf("clustersmt: %w", err)
	}
	return sim.Run()
}

// SimulateMultiprogram runs independent sequential jobs, one per
// hardware context, each in a private address space — the
// multiprogrammed configuration of the SMT studies the paper builds on.
// Programs should be built for a single thread.
func SimulateMultiprogram(m Machine, jobs []*Program) (*Result, error) {
	sim, err := core.NewMulti(m, jobs)
	if err != nil {
		return nil, fmt.Errorf("clustersmt: %w", err)
	}
	return sim.Run()
}

// RunFunctional executes p on the functional reference machine (no
// timing) with the given thread count — the fastest way to check that a
// custom kernel computes what it should before simulating it.
func RunFunctional(p *Program, threads int) (*parallel.FunctionalResult, error) {
	return parallel.RunFunctional(p, threads, 0)
}

// SlotCategory is one §4.1 issue-slot class (useful, fetch, sync,
// control, data, memory, structural, other).
type SlotCategory = stats.Category

// Slot categories in the paper's legend order.
const (
	SlotUseful     = stats.Useful
	SlotFetch      = stats.Fetch
	SlotSync       = stats.Sync
	SlotControl    = stats.Control
	SlotData       = stats.Data
	SlotMemory     = stats.Memory
	SlotStructural = stats.Structural
	SlotOther      = stats.Other
)

// MetricsFrame is one interval-metrics sample: the deltas and gauges
// covering [Start, End) cycles of a run. Produced by
// Simulator.EnableMetrics / OnInterval and the Suite metrics fields;
// sampling is read-only and leaves results bit-identical.
type MetricsFrame = obs.Frame

// MetricsRing retains the most recent MetricsFrames of a run and
// exports them as CSV or JSON.
type MetricsRing = obs.Ring

// DefaultMetricsInterval is the sampling interval (cycles per frame)
// used when none is specified.
const DefaultMetricsInterval = core.DefaultMetricsInterval

// Suite runs and caches experiment matrices (Figures 4–8).
type Suite = harness.Suite

// Figure is a rendered experiment table (one of Figures 4/5/7/8).
type Figure = harness.Figure

// NewSuite returns an experiment suite at the given input size.
func NewSuite(size Size) *Suite { return harness.NewSuite(size) }

// Model re-exports the §2 analytical model of parallelism.
type (
	// ModelPoint is an application's (threads × ILP) operating point.
	ModelPoint = model.Point
	// ModelProc is an architecture's exploitable region.
	ModelProc = model.Proc
	// ModelRegion classifies app-vs-architecture fit (Figure 1).
	ModelRegion = model.Region
)

// ModelOf converts an architecture to its analytical-model description.
func ModelOf(a Arch) ModelProc { return model.FromArch(a) }

// ModelChart renders a Figure 1/6-style ASCII chart of proc with the
// given application points.
func ModelChart(proc ModelProc, apps map[string]ModelPoint) string {
	return model.Chart(proc, apps)
}

// RenderPlacement renders measured Figure 6 placements against proc.
func RenderPlacement(points map[string]ModelPoint, proc ModelProc) string {
	return harness.RenderPlacement(points, proc)
}
