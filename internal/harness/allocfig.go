package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/workloads"
)

// allocFigEpoch is the rebalance interval of the allocation figure's
// dynamic columns. The figure's multiprogrammed mixes finish in a few
// hundred thousand cycles at test size, so it is much shorter than
// config.DefaultAllocEpoch — the dynamic policies get enough epoch
// boundaries to react within the run.
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

// allocMixJobs is the mix for a machine with the given number of
// hardware contexts: half the contexts get a job (minimum two, capped
// at the context count), leaving slack capacity for migration.
func allocMixJobs(contexts int, size workloads.Size) mix {
	x := mix{jobs: make([]workloads.Workload, min(max(contexts/2, 2), contexts)), size: size}
	names := make([]string, len(x.jobs))
	for i := range x.jobs {
		x.jobs[i] = allocMix[i%len(allocMix)]()
		names[i] = x.jobs[i].Name
	}
	x.name = strings.Join(names, "+")
	return x
}

// AllocationFigure measures the dynamic allocation policies against
// the static bounds on a multiprogrammed mix at the suite's input size,
// across all seven Table 2 presets on both the low-end and high-end
// machines, with epochs of allocFigEpoch cycles. Every search and run
// goes through the suite's memo, so a second render runs nothing. The
// whole figure is deterministic: rendering it twice produces
// byte-identical output.
func (s *Suite) AllocationFigure(ctx context.Context) (*AllocFigure, error) {
	f := &AllocFigure{
		Title: fmt.Sprintf("Dynamic allocation: multiprogrammed mix, cycles to completion "+
			"(dynamic policies start from the worst static assignment; epoch=%d)", allocFigEpoch),
		Policies: AllocPolicies,
	}
	var machines []config.Machine
	for _, arch := range config.AllArchs {
		machines = append(machines, config.LowEnd(arch), config.HighEnd(arch))
	}
	// Rows are assembled in fixed machine order, so the rendered figure
	// is byte-identical regardless of scheduling.
	f.Rows = make([]AllocRow, len(machines))
	if err := each(len(machines), func(i int) (err error) {
		f.Rows[i], err = s.allocRow(ctx, machines[i])
		return err
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// allocRow measures one machine: search the static assignment space
// once for the best/worst bounds, then run the mix under each policy
// column. Columns that resolve to one run (worst and oracle when the
// search finds one assignment for both) share it through the memo.
func (s *Suite) allocRow(ctx context.Context, m config.Machine) (AllocRow, error) {
	x := allocMixJobs(m.Threads(), s.Size)
	progs := sync.OnceValue(x.progs) // one build, read-only to every candidate
	best, worst, err := s.search(ctx, x.key(m, nil), func() (*core.Simulator, error) { return core.NewMulti(m, progs()) })
	if err != nil {
		return AllocRow{}, fmt.Errorf("harness: alloc figure %s: search: %w", m.Name, err)
	}
	row := AllocRow{Machine: m.Name, Jobs: len(x.jobs)}
	for _, pol := range AllocPolicies {
		pm, start := m, worst
		switch pol {
		case "static":
			start = nil // seed placement, no allocator: the reference column
		case "worst":
		case "oracle":
			start = best
		default:
			pm.Alloc = config.AllocConfig{Policy: pol, Epoch: allocFigEpoch}
		}
		r, err := s.runMulti(ctx, pm, x, start)
		if err != nil {
			return AllocRow{}, err
		}
		row.Cells = append(row.Cells, AllocCell{Policy: pol, Cycles: r.Cycles, Migrations: r.AllocMigrations})
	}
	return row, nil
}
