package harness

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// allocFigEpoch is the rebalance interval the allocation figure uses
// when the caller does not pick one. The figure's multiprogrammed
// mixes finish in a few hundred thousand cycles at test size, so the
// default is much shorter than config.DefaultAllocEpoch — the dynamic
// policies get enough epoch boundaries to react within the run.
const allocFigEpoch = 2000

// AllocPolicies are the allocation figure's columns, in render order:
// the seed placement, the profiled worst static assignment (the
// adversarial baseline), the two feedback policies — started from that
// worst assignment, so the figure measures recovery rather than a
// no-op on an already balanced start — and the profiled best static
// assignment (the oracle upper bound).
var AllocPolicies = []string{"static", "worst", "icount", "symbiosis", "oracle"}

// AllocCell is one (machine, policy) measurement of the allocation
// figure.
type AllocCell struct {
	Policy     string
	Cycles     int64
	Migrations uint64 // accepted thread migrations (dynamic policies)
	Epochs     uint64 // epoch boundaries evaluated
}

// AllocRow is one machine's line: the same multiprogrammed mix run
// under every allocation policy.
type AllocRow struct {
	Machine string
	Jobs    int
	Cells   []AllocCell // len(AllocPolicies), column order
}

// AllocFigure is the dynamic-allocation chart: a multiprogrammed mix
// of independent single-thread jobs on all seven Table 2 presets ×
// both machines, one column per allocation policy.
type AllocFigure struct {
	Title    string
	Policies []string
	Rows     []AllocRow
}

// Get returns the cell for (machine, policy); it panics on unknown
// names (the figure is built internally with fixed sets).
func (f *AllocFigure) Get(machine, policy string) AllocCell {
	for _, r := range f.Rows {
		if r.Machine != machine {
			continue
		}
		for _, c := range r.Cells {
			if c.Policy == policy {
				return c
			}
		}
	}
	panic(fmt.Sprintf("harness: allocation figure has no cell (%s, %s)", machine, policy))
}

// Render formats the figure: one line per machine, cycles to
// completion per policy (lower is better), plus the dynamic policies'
// accepted migration counts.
func (f *AllocFigure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-18s %4s", "machine", "jobs")
	for _, p := range f.Policies {
		fmt.Fprintf(&b, " %10s", p)
	}
	b.WriteString("  migrations\n")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-18s %4d", r.Machine, r.Jobs)
		var migs []string
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %10d", c.Cycles)
			if c.Migrations > 0 {
				migs = append(migs, fmt.Sprintf("%s:%d", c.Policy, c.Migrations))
			}
		}
		b.WriteString("  ")
		if len(migs) > 0 {
			b.WriteString(strings.Join(migs, " "))
		} else {
			b.WriteString("-")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// allocMix is the heterogeneous job mix the figure multiprograms:
// alternating memory-bound (ocean, swim) and compute/sync-bound (fmm,
// tomcatv) single-thread jobs, so clusters differ in cache pressure
// and jobs finish at different times — the imbalance the feedback
// policies exist to exploit.
var allocMix = []func() workloads.Workload{
	workloads.Ocean, workloads.Fmm, workloads.Swim, workloads.Tomcatv,
}

// allocMixJobs builds the mix for a machine with the given number of
// hardware contexts: half the contexts get a job (minimum two, capped
// at the context count), leaving slack capacity for migration.
func allocMixJobs(contexts int, size workloads.Size) []*prog.Program {
	n := contexts / 2
	if n < 2 {
		n = 2
	}
	if n > contexts {
		n = contexts
	}
	jobs := make([]*prog.Program, n)
	for i := range jobs {
		jobs[i] = allocMix[i%len(allocMix)]().Build(1, 1, size)
	}
	return jobs
}

// AllocationFigure measures the dynamic allocation policies against
// the static bounds on a multiprogrammed mix, across all seven Table 2
// presets on both the low-end and high-end machines. epoch <= 0 uses
// allocFigEpoch. The whole figure is deterministic: rendering it twice
// produces byte-identical output.
func AllocationFigure(ctx context.Context, size workloads.Size, epoch int64) (*AllocFigure, error) {
	if epoch <= 0 {
		epoch = allocFigEpoch
	}
	f := &AllocFigure{
		Title: fmt.Sprintf("Dynamic allocation: multiprogrammed mix, cycles to completion "+
			"(dynamic policies start from the worst static assignment; epoch=%d)", epoch),
		Policies: AllocPolicies,
	}
	var machines []config.Machine
	for _, arch := range config.AllArchs {
		machines = append(machines, config.LowEnd(arch), config.HighEnd(arch))
	}
	// Rows are independent simulations; run them concurrently and
	// assemble in fixed machine order, so the rendered figure is
	// byte-identical regardless of scheduling.
	rows := make([]*AllocRow, len(machines))
	errs := make([]error, len(machines))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, m := range machines {
		wg.Add(1)
		go func(i int, m config.Machine) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rows[i], errs[i] = allocRow(ctx, m, size, epoch)
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, *rows[i])
	}
	return f, nil
}

// allocRow measures one machine: search the static assignment space
// once for the best/worst bounds, then run the mix under each policy
// column.
func allocRow(ctx context.Context, m config.Machine, size workloads.Size, epoch int64) (*AllocRow, error) {
	jobs := allocMixJobs(m.Threads(), size)
	mk := func() (*core.Simulator, error) {
		sim, err := core.NewMulti(m, jobs)
		if err != nil {
			return nil, err
		}
		sim.Interrupt = ctx.Done()
		return sim, nil
	}
	best, worst, err := core.SearchStatic(mk, core.SearchPrefixCycles, core.SearchMaxCandidates)
	if err != nil {
		return nil, fmt.Errorf("harness: alloc figure %s: search: %w", m.Name, err)
	}
	row := &AllocRow{Machine: m.Name, Jobs: len(jobs)}
	for _, pol := range AllocPolicies {
		pm := m
		var start []int
		switch pol {
		case "static":
			// Seed placement, no allocator — the reference column.
		case "worst":
			start = worst
		case "oracle":
			start = best
		default:
			pm.Alloc = config.AllocConfig{Policy: pol, Epoch: epoch}
			start = worst
		}
		sim, err := core.NewMulti(pm, jobs)
		if err != nil {
			return nil, fmt.Errorf("harness: alloc figure %s/%s: %w", m.Name, pol, err)
		}
		if start != nil {
			if err := sim.SetAssignment(start); err != nil {
				return nil, fmt.Errorf("harness: alloc figure %s/%s: %w", m.Name, pol, err)
			}
		}
		sim.Interrupt = ctx.Done()
		r, err := sim.Run()
		if err != nil {
			return nil, fmt.Errorf("harness: alloc figure %s/%s: %w", m.Name, pol, err)
		}
		row.Cells = append(row.Cells, AllocCell{
			Policy:     pol,
			Cycles:     r.Cycles,
			Migrations: r.AllocMigrations,
			Epochs:     r.AllocEpochs,
		})
	}
	return row, nil
}
