package workloads

import (
	"fmt"
	"strings"

	"clustersmt/internal/isa"
	"clustersmt/internal/parallel"
	"clustersmt/internal/prog"
)

// Mix is a workload's dynamic instruction mix, measured by functional
// execution — the workload-characterization table every simulation
// paper carries alongside its figures.
type Mix struct {
	Total    uint64
	IntOps   uint64
	FPOps    uint64
	Loads    uint64
	Stores   uint64
	Branches uint64
	Syncs    uint64
	Other    uint64
}

func (m Mix) pct(n uint64) float64 {
	if m.Total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(m.Total)
}

// MeasureMix functionally executes p with the given thread count
// (parallel.RunFunctional, with its step bound, deadlock and held-lock
// checks) and folds the executed opcodes into the dynamic instruction
// mix.
func MeasureMix(p *prog.Program, threads int) (Mix, error) {
	r, err := parallel.RunFunctional(p, threads, 0)
	if err != nil {
		return Mix{}, err
	}
	var m Mix
	for op, n := range r.Ops {
		inf := isa.InfoFor(isa.Op(op))
		m.Total += n
		switch {
		case inf.Sync:
			m.Syncs += n
		case inf.Branch:
			m.Branches += n
		case inf.Class == isa.ClassLoad:
			m.Loads += n
		case inf.Class == isa.ClassStore:
			m.Stores += n
		case inf.Class == isa.ClassFP:
			m.FPOps += n
		case inf.Class == isa.ClassInt:
			m.IntOps += n
		default:
			m.Other += n
		}
	}
	return m, nil
}

// MixTable renders the dynamic mixes of the given workloads at the
// given thread count and size.
func MixTable(ws []Workload, threads int, size Size) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %6s %6s %6s %6s %7s %6s\n",
		"app", "instrs", "int%", "fp%", "load%", "store%", "branch%", "sync%")
	for _, w := range ws {
		p := w.Build(threads, 1, size)
		m, err := MeasureMix(p, threads)
		if err != nil {
			return "", fmt.Errorf("%s: %w", w.Name, err)
		}
		fmt.Fprintf(&b, "%-10s %10d %5.1f%% %5.1f%% %5.1f%% %5.1f%% %6.1f%% %5.1f%%\n",
			w.Name, m.Total, m.pct(m.IntOps), m.pct(m.FPOps), m.pct(m.Loads),
			m.pct(m.Stores), m.pct(m.Branches), m.pct(m.Syncs))
	}
	return b.String(), nil
}
