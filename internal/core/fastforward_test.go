package core

import (
	"reflect"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// diffModes are the three mode combinations compared against the
// scan × stepped reference (oracle_test.go): the issue stage (the
// window-scan definition vs the production stage) crossed with the
// cycle loop (the stepped reference loop vs quiescence fast-forward).
// wakeup+ff is the production configuration, Simulator.Run itself;
// wakeup+stepped also audits the issue state every cycle.
var diffModes = []struct {
	name       string
	eventIssue bool
	ff         bool
}{
	{"scan+ff", false, true},
	{"wakeup+stepped", true, false},
	{"wakeup+ff", true, true},
}

// runBothModes runs the same (machine, program) pair under the stepped
// reference loop and under Simulator.Run, and returns both results plus
// the number of cycles the production run skipped.
func runBothModes(t *testing.T, m config.Machine, build func() *prog.Program) (stepped, ff *Result, skipped int64) {
	t.Helper()
	stepped, _ = runMode(t, m, build, true, false)
	ff, skipped = runMode(t, m, build, true, true)
	return stepped, ff, skipped
}

// TestEventDrivenDifferential is the contract test for both event
// layers: on every Table 2 preset, low- and high-end, over a
// memory-bound and a sync-bound workload, the production run and the
// two mixed legs must produce a Result that is bit-identical
// (reflect.DeepEqual — same cycles, same float64 slot counts, every
// counter) to the scan × stepped reference. It also asserts the fast
// path actually engaged somewhere, so the fast-forward legs are not
// vacuous.
func TestEventDrivenDifferential(t *testing.T) {
	apps := []string{"ocean", "fmm"}
	var totalSkipped int64
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
				name := app + "/" + m.Name
				t.Run(name, func(t *testing.T) {
					build := func() *prog.Program {
						return w.Build(m.Threads(), m.Chips, workloads.SizeTest)
					}
					ref, _ := runMode(t, m, build, false, false)
					for _, md := range diffModes {
						got, skipped := runMode(t, m, build, md.eventIssue, md.ff)
						if !reflect.DeepEqual(ref, got) {
							t.Errorf("%s result differs from scan+stepped reference:\n  ref: %v\n  got: %v", md.name, ref, got)
						}
						totalSkipped += skipped
					}
				})
			}
		}
	}
	if totalSkipped == 0 {
		t.Error("fast-forward never engaged across the whole matrix; differential test is vacuous")
	}
}

// TestEventDrivenDifferentialLockContention pins the spinner replay:
// heavily contended locks make threads spin for long stretches, and the
// per-poll LockConflicts accounting must survive the bulk skip exactly.
func TestEventDrivenDifferentialLockContention(t *testing.T) {
	build := func() *prog.Program {
		b := prog.NewBuilder("lockdiff")
		cnt := b.Global("cnt", 1)
		b.Li(1, 0)
		b.Li(2, 50)
		b.CountedLoop(1, 2, func() {
			b.Lock(1)
			b.Ld(3, 0, cnt)
			b.Addi(3, 3, 1)
			b.St(3, 0, cnt)
			b.Unlock(1)
		})
		b.Halt()
		return b.MustBuild()
	}
	stepped, ff, _ := runBothModes(t, config.LowEnd(config.FA8), build)
	if stepped.LockConflicts == 0 {
		t.Fatal("kernel produced no lock conflicts; test is vacuous")
	}
	if !reflect.DeepEqual(stepped, ff) {
		t.Errorf("lock-contention results differ:\n  stepped: %v (conflicts %d)\n  fastfwd: %v (conflicts %d)",
			stepped, stepped.LockConflicts, ff, ff.LockConflicts)
	}
}

// buildBarrierDeadlock returns a kernel that can never finish: thread 0
// halts before the barrier, so the other threads wait forever.
func buildBarrierDeadlock() *prog.Program {
	b := prog.NewBuilder("deadlock")
	b.GlobalWords("nthreads", []uint64{8})
	b.IfThread0(func() {
		b.Halt()
	})
	b.Barrier(0)
	b.Halt()
	return b.MustBuild()
}

// TestEventDrivenDeadlockGuard checks the degenerate quiescent state
// with no future event: both modes must fail with the identical
// MaxCycles error, and the event-driven run must reach it by jumping
// straight to the cap instead of grinding through every idle cycle.
func TestEventDrivenDeadlockGuard(t *testing.T) {
	m := config.LowEnd(config.FA8)
	const cap = 100_000

	base, err := New(m, buildBarrierDeadlock())
	if err != nil {
		t.Fatal(err)
	}
	base.MaxCycles = cap
	_, errStepped := refLoop{}.run(base)

	ev, err := New(m, buildBarrierDeadlock())
	if err != nil {
		t.Fatal(err)
	}
	ev.MaxCycles = cap
	_, errFF := ev.Run()

	if errStepped == nil || errFF == nil {
		t.Fatalf("deadlock not caught: stepped=%v fastfwd=%v", errStepped, errFF)
	}
	if errStepped.Error() != errFF.Error() {
		t.Errorf("error mismatch:\n  stepped: %v\n  fastfwd: %v", errStepped, errFF)
	}
	if ev.FastForwarded() != 0 {
		// The deadlock jump goes straight to MaxCycles without charging
		// accounting (the error path discards it), so it must not be
		// reported as regular fast-forwarded cycles.
		t.Errorf("deadlock jump charged %d fast-forwarded cycles", ev.FastForwarded())
	}

	// With the default 2-billion-cycle cap the event-driven run still
	// finishes instantly: the skip is O(1), not O(MaxCycles).
	ev2, err := New(m, buildBarrierDeadlock())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev2.Run(); err == nil {
		t.Fatal("deadlock not caught at default MaxCycles")
	}
}

// TestEventDrivenMultiprogram covers the NewMulti path (private syncs,
// per-job address spaces) through the same differential lens.
func TestEventDrivenMultiprogram(t *testing.T) {
	jobs := func() []*prog.Program {
		var js []*prog.Program
		for i := 0; i < 4; i++ {
			js = append(js, buildVectorSum(64, 1))
		}
		return js
	}
	m := config.LowEnd(config.SMT2)

	run := func(eventIssue, ff bool) *Result {
		s, err := NewMulti(m, jobs())
		if err != nil {
			t.Fatal(err)
		}
		return runSim(t, s, eventIssue, ff)
	}
	ref := run(false, false)
	for _, md := range diffModes {
		if got := run(md.eventIssue, md.ff); !reflect.DeepEqual(ref, got) {
			t.Errorf("multiprogram %s result differs from scan+stepped reference:\n  ref: %v\n  got: %v", md.name, ref, got)
		}
	}
}
