package core

import (
	"bytes"
	"reflect"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/isa"
	"clustersmt/internal/obs"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// buildLockStorm is a lock-bound kernel for many single-thread
// clusters: every thread takes one of two locks in turn around a
// read-modify-write, so most clusters are spinners most of the time,
// releases are frequent, and a sleeping spinner is woken again and
// again — by releases of its own lock and of the other one.
func buildLockStorm() *prog.Program {
	b := prog.NewBuilder("lockstorm")
	cnt := b.Global("cnt", 2)
	b.Li(1, 0)
	b.Li(2, 24)
	b.CountedLoop(1, 2, func() {
		for lock := int64(0); lock < 2; lock++ {
			b.Lock(lock)
			b.Ld(3, 0, cnt+lock*prog.WordSize)
			b.Addi(3, 3, 1)
			b.St(3, 0, cnt+lock*prog.WordSize)
			b.Unlock(lock)
		}
	})
	b.Barrier(0)
	b.Halt()
	return b.MustBuild()
}

// buildImbalancedChase is buildImbalanced with the survivors chasing
// pointers through missing lines: the whole machine sleeps for a memory
// round trip at a time, across the boundaries of a short epoch.
func buildImbalancedChase(threads int) *prog.Program {
	const n, stride = 8192, 97
	b := prog.NewBuilder("imbalanced-chase")
	b.GlobalWords("nthreads", []uint64{uint64(threads)})
	data := b.Global("chain", n)
	b.Mov(1, isa.RegTID)
	b.Andi(2, 1, 1)
	b.Bne(2, isa.RegZero, "done") // odd tids halt immediately
	b.Shli(3, 1, 9)               // each survivor enters the cycle at its own line
	b.Addi(3, 3, data)
	b.Li(4, 0)
	b.Li(5, 400)
	b.CountedLoop(4, 5, func() {
		b.Ld(3, 3, 0)
	})
	b.Label("done")
	b.Halt()
	p := b.MustBuild()
	for i := int64(0); i < n; i++ {
		p.Init.Set(data+i*prog.WordSize, uint64(data+(i+stride)%n*prog.WordSize))
	}
	return p
}

// sleepCase builds one simulator of the sleep differential.
type sleepCase struct {
	name string
	mk   func() (*Simulator, error)
}

// sleepCases is what TestClusterSleepDifferential covers: every preset
// on both machines over all six applications at test size, a lock storm
// and a multiprogrammed mix (private syncs and address spaces), and the
// dynamic allocation policies with migrations in flight.
func sleepCases() []sleepCase {
	var cases []sleepCase
	for _, arch := range config.AllArchs {
		for _, m := range []config.Machine{config.LowEnd(arch), config.HighEnd(arch)} {
			for _, w := range workloads.All() {
				cases = append(cases, sleepCase{w.Name + "/" + m.Name, func() (*Simulator, error) {
					return New(m, w.Build(m.Threads(), m.Chips, workloads.SizeTest))
				}})
			}
		}
	}
	for _, m := range []config.Machine{config.LowEnd(config.FA8), config.HighEnd(config.FA8), config.HighEnd(config.SMT2)} {
		cases = append(cases, sleepCase{"lockstorm/" + m.Name, func() (*Simulator, error) {
			return New(m, buildLockStorm())
		}})
	}
	for _, m := range []config.Machine{config.LowEnd(config.SMT2), config.HighEnd(config.FA4)} {
		cases = append(cases, sleepCase{"multi/" + m.Name, func() (*Simulator, error) {
			return NewMulti(m, searchMix(m.Threads()/2))
		}})
	}
	for _, pol := range []string{"icount", "symbiosis"} {
		for _, m := range []config.Machine{config.LowEnd(config.SMT2), config.HighEnd(config.SMT2), config.HighEnd(config.FA4)} {
			m.Alloc = config.AllocConfig{Policy: pol, Epoch: 500}
			cases = append(cases, sleepCase{pol + "/" + m.Name, func() (*Simulator, error) {
				return New(m, buildImbalanced(m.Threads(), 2000))
			}})
		}
		m := config.LowEnd(config.SMT2)
		m.Alloc = config.AllocConfig{Policy: pol, Epoch: 25}
		cases = append(cases, sleepCase{pol + "/chase/" + m.Name, func() (*Simulator, error) {
			return New(m, buildImbalancedChase(m.Threads()))
		}})
	}
	return cases
}

// TestClusterSleepDifferential is the contract test for cluster sleep:
// Simulator.Run — in which a cluster that cannot make progress sleeps,
// and the machine jumps when all do — must produce a Result
// bit-identical (reflect.DeepEqual: same cycles, same float64 slot
// counts, every counter) to the never-sleeping reference loop, with
// and with metrics frames on (and equal). The production loop is then
// run once more with every sleeper audited every cycle. The totals at
// the end keep all of it from being vacuous.
func TestClusterSleepDifferential(t *testing.T) {
	var audit sleepAudit
	var migrations uint64
	var fa8 SleepStats
	for _, tc := range sleepCases() {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(frames *[]obs.Frame) *Simulator {
				s, err := tc.mk()
				if err != nil {
					t.Fatal(err)
				}
				if frames != nil {
					s.EnableMetrics(97, 0)
					s.OnInterval(func(f obs.Frame) { *frames = append(*frames, f) })
				}
				return s
			}
			must := func(r *Result, err error) *Result {
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			var refFrames, gotFrames []obs.Frame
			ref := must(refLoop{}.run(mk(&refFrames)))
			migrations += ref.AllocMigrations

			s := mk(nil)
			if got := must(s.Run()); !reflect.DeepEqual(ref, got) {
				t.Errorf("Run differs from the never-sleeping loop:\n  ref: %v\n  got: %v", ref, got)
			}
			if s.Machine.Name == config.HighEnd(config.FA8).Name {
				st := s.SleepStats()
				fa8.ClusterCycles += st.ClusterCycles
				fa8.Slept += st.Slept
			}
			if got := must(mk(&gotFrames).Run()); !reflect.DeepEqual(ref, got) {
				t.Errorf("Run with metrics differs from the never-sleeping loop:\n  ref: %v\n  got: %v", ref, got)
			}
			if !reflect.DeepEqual(refFrames, gotFrames) {
				t.Errorf("metrics frames differ: %d under the never-sleeping loop, %d under Run", len(refFrames), len(gotFrames))
			}
			if got := must(refLoop{sleep: &audit}.run(mk(nil))); !reflect.DeepEqual(ref, got) {
				t.Errorf("audited production loop differs from the never-sleeping loop:\n  ref: %v\n  got: %v", ref, got)
			}
		})
	}
	if audit.sleepers == 0 || audit.released == 0 {
		t.Errorf("audit saw %d sleeper-cycles, %d of them reached by a release; the audit is vacuous", audit.sleepers, audit.released)
	}
	if migrations == 0 {
		t.Error("no migration in any allocation case; they exercise nothing")
	}
	if 2*fa8.Slept <= fa8.ClusterCycles {
		t.Errorf("high-end FA8 slept %d of %d cluster-cycles, want more than half", fa8.Slept, fa8.ClusterCycles)
	}
}

// TestParallelClusterSleep holds the deprecated Parallel field to its
// contract, ignored, on the multi-chip cases (the configuration the
// benchmark assigns it on): with it set, Run must equal the
// never-sleeping loop and clusters must still sleep one at a time, as
// in the one cycle loop, not only together for a machine jump.
func TestParallelClusterSleep(t *testing.T) {
	var slept int64
	for _, tc := range sleepCases() {
		probe, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		if app := probe.Program.Name; len(probe.chips) == 1 || app == "ocean" || app == "fmm" {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			ref, err := refLoop{}.run(probe)
			if err != nil {
				t.Fatal(err)
			}
			s, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			s.Parallel = true
			got, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("Run with Parallel set differs from the never-sleeping loop:\n  ref: %v\n  got: %v", ref, got)
			}
			slept += s.SleepStats().Slept
		})
	}
	if slept == 0 {
		t.Error("no cluster slept with Parallel set; the differential is vacuous")
	}
}

// TestClusterSleepPause sweeps RunTo over a window of high-end FA8
// tomcatv in which most clusters are asleep: a pause wakes them, so the
// Snapshot taken there must be, byte for byte, that of a simulator the
// never-sleeping loop advanced to the same cycle, and a simulator
// restored from it must finish with the uninterrupted Result.
func TestClusterSleepPause(t *testing.T) {
	m := config.HighEnd(config.FA8)
	p := workloads.Tomcatv().Build(m.Threads(), m.Chips, workloads.SizeTest)
	mk := func() *Simulator {
		s, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	full, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	from := full.Cycles / 2
	pausedAsleep := 0
	for k := from; k < from+40; k++ {
		s := mk()
		if err := s.RunTo(k); err != nil {
			t.Fatal(err)
		}
		if s.nAsleep != 0 {
			t.Fatalf("RunTo(%d) left %d clusters asleep", k, s.nAsleep)
		}
		ref := mk()
		if _, err := (refLoop{}).runTo(ref, s.Cycle()); err != nil {
			t.Fatal(err)
		}
		ref.ffCycles = s.ffCycles // on the wire, and the one thing that may differ
		got, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pause at cycle %d: snapshot differs from the never-sleeping loop's", s.Cycle())
		}
		// The same loop once more with the audit on, to count the
		// clusters that slept through the last cycle before the pause.
		var audit sleepAudit
		if _, err := (refLoop{sleep: &audit}).runTo(mk(), k); err != nil {
			t.Fatal(err)
		}
		if audit.last > 0 {
			pausedAsleep++
		}
		back, err := Restore(m, p, got)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := back.Run(); err != nil || !reflect.DeepEqual(full, r) {
			t.Fatalf("restored at cycle %d: err %v\n  want: %v\n  got:  %v", s.Cycle(), err, full, r)
		}
	}
	if pausedAsleep < 20 {
		t.Errorf("only %d of 40 pauses came upon sleeping clusters; the sweep is close to vacuous", pausedAsleep)
	}
}
