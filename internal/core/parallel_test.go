package core

import (
	"io"
	"reflect"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// runParLeg runs one (machine, program) pair in one execution mode
// (runSim's issue stage and cycle loop, sequential or per-chip) and
// returns the Result, the off-Result memory counters, and the number of
// cycles whose issue/fetch phase actually ran concurrently on the chip
// workers (always zero for sequential legs and single-chip machines).
func runParLeg(t *testing.T, m config.Machine, build func() *prog.Program, parallel, eventIssue, ff bool) (*Result, memSideStats, int64) {
	t.Helper()
	s, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	s.Parallel = parallel
	r := runSim(t, s, eventIssue, ff)
	return r, collectMemSide(s), s.parBCycles
}

// TestParallelDifferential is the contract test for the per-chip
// parallel execution mode: on every Table 2 preset, low- and high-end,
// over a memory-bound and a sync-bound workload, the parallel loop —
// under both the stepped and fast-forward cycle loops — must produce a
// Result that is bit-identical (reflect.DeepEqual — same cycles, same
// float64 slot votes, every counter) to the sequential scan × stepped
// reference, and the off-Result MSHR, cache and directory counters must
// match exactly as well. It also asserts the concurrent phase actually
// engaged somewhere on the multi-chip machines, so the parallel legs
// are not vacuously running the sequential fallback every cycle.
func TestParallelDifferential(t *testing.T) {
	apps := []string{"ocean", "fmm"}
	parModes := []struct {
		name string
		ff   bool
	}{
		{"parallel+stepped", false},
		{"parallel+ff", true},
	}
	var totalParB int64
	for _, arch := range config.AllArchs {
		for _, app := range apps {
			w, err := workloads.ByName(app)
			if err != nil {
				t.Fatal(err)
			}
			for _, highEnd := range []bool{false, true} {
				m := config.LowEnd(arch)
				if highEnd {
					m = config.HighEnd(arch)
				}
				t.Run(app+"/"+m.Name, func(t *testing.T) {
					build := func() *prog.Program {
						return w.Build(m.Threads(), m.Chips, workloads.SizeTest)
					}
					ref, refSide, _ := runParLeg(t, m, build, false, false, false)
					for _, md := range parModes {
						got, gotSide, parB := runParLeg(t, m, build, true, true, md.ff)
						if !reflect.DeepEqual(ref, got) {
							t.Errorf("%s Result differs from sequential reference:\n  ref: %v\n  got: %v", md.name, ref, got)
						}
						if !reflect.DeepEqual(refSide, gotSide) {
							t.Errorf("%s side stats differ from sequential reference:\n  ref: %+v\n  got: %+v", md.name, refSide, gotSide)
						}
						totalParB += parB
					}
				})
			}
		}
	}
	if totalParB == 0 {
		t.Error("concurrent phase never engaged across the whole matrix; parallel differential is vacuous")
	}
}

// TestParallelMultiprogram covers the NewMulti path (private syncs,
// per-job address spaces) under the parallel loop, on the high-end
// machine so the chip workers actually run concurrently.
func TestParallelMultiprogram(t *testing.T) {
	const jobCount = 8
	jobs := func() []*prog.Program {
		var js []*prog.Program
		for i := 0; i < jobCount; i++ {
			js = append(js, buildVectorSum(64, 1))
		}
		return js
	}
	m := config.HighEnd(config.SMT2)

	run := func(parallel, eventIssue, ff bool) (*Result, int64) {
		s, err := NewMulti(m, jobs())
		if err != nil {
			t.Fatal(err)
		}
		s.Parallel = parallel
		return runSim(t, s, eventIssue, ff), s.parBCycles
	}
	ref, _ := run(false, false, false)
	var totalParB int64
	for _, ff := range []bool{false, true} {
		got, parB := run(true, true, ff)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("multiprogram parallel (ff=%v) Result differs from sequential reference:\n  ref: %v\n  got: %v", ff, ref, got)
		}
		totalParB += parB
	}
	if totalParB == 0 {
		t.Error("concurrent phase never engaged in the multiprogram run; test is vacuous")
	}
}

// TestParallelRejectsTracing pins the one precondition: Chrome
// tracing orders its events by the sequential stage walk, so a parallel
// run with a tracer attached must be refused.
func TestParallelRejectsTracing(t *testing.T) {
	m := config.HighEnd(config.SMT2)
	s, err := New(m, buildVectorSum(64, m.Threads()))
	if err != nil {
		t.Fatal(err)
	}
	s.Parallel = true
	s.TraceChromeTo(io.Discard, 0, 0)
	if _, err := s.Run(); err == nil {
		t.Fatal("Parallel with tracing enabled did not fail")
	}
}
