package core

import (
	"reflect"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/workloads"
)

// memSideStats collects the memory-path counters that are NOT part of
// Result — the per-chip MSHR and cache stats plus the directory's
// tracked-line count — so the loop differentials cover them too.
type memSideStats struct {
	MSHR     [][3]uint64 // per chip: Merges, Rejected, Allocated
	L1, L2   [][4]uint64 // per chip: Hits, Misses, Evictions, WritebackEvictions
	DirLines int
}

// collectMemSide gathers the off-Result memory-path counters after a
// run.
func collectMemSide(s *Simulator) memSideStats {
	var side memSideStats
	for _, c := range s.msys.Chips {
		side.MSHR = append(side.MSHR, [3]uint64{c.MSHR.Merges, c.MSHR.Rejected, c.MSHR.Allocated})
		side.L1 = append(side.L1, [4]uint64{c.L1.Hits, c.L1.Misses, c.L1.Evictions, c.L1.WritebackEvictions})
		side.L2 = append(side.L2, [4]uint64{c.L2.Hits, c.L2.Misses, c.L2.Evictions, c.L2.WritebackEvictions})
	}
	side.DirLines = s.msys.Dir.Lines()
	return side
}

// TestMemPathDifferential holds the memory path to the same contract
// across cycle loops as the pipeline: on every Table 2 preset, low- and
// high-end, over a memory-bound and a sync-bound workload, a production
// run must leave the MSHR files, both cache levels and the directory
// with exactly the counters the scan × stepped reference loop leaves —
// the fast-forward skips cycles but never an access, and lazy MSHR
// retirement must not depend on how many idle cycles were stepped in
// between. (The structures themselves are checked against their
// definitions where they live: sweepMSHR and denseCache in
// internal/memsys, mapDirectory in internal/coherence.)
func TestMemPathDifferential(t *testing.T) {
	apps := []string{"ocean", "fmm"}
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
					side := func(eventIssue, ff bool) memSideStats {
						s, err := New(m, w.Build(m.Threads(), m.Chips, workloads.SizeTest))
						if err != nil {
							t.Fatal(err)
						}
						runSim(t, s, eventIssue, ff)
						return collectMemSide(s)
					}
					if ref, got := side(false, false), side(true, true); !reflect.DeepEqual(ref, got) {
						t.Errorf("memory-path side stats differ from the stepped reference:\n  ref: %+v\n  got: %+v", ref, got)
					}
				})
			}
		}
	}
}
