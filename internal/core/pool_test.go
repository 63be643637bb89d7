package core

import (
	"reflect"
	"testing"
	"unsafe"

	"clustersmt/internal/config"
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// tinyWindow is a one-cluster, one-thread machine with the smallest
// Table 2 window (16 entries, hence a 16-slot pool): every reference
// more than a couple of dozen instructions old outlives its slot.
func tinyWindow() config.Machine {
	return config.LowEnd(config.Arch{Name: "W16", Clusters: 1, IssueWidth: 2, ThreadsPerCluster: 1,
		IntUnits: 2, LdStUnits: 1, FPUnits: 1, WindowEntries: 16, RenameInt: 32, RenameFP: 32})
}

// buildSlotReuse emits a loop built to strand references across slot
// reuse: r1 and f1 are written once before the loop and read forever
// (their last-writer refs go stale within an iteration); each iteration
// stores to a, then hangs a load from a behind an unpipelined divide —
// the store commits, its slot is freed and refilled while the load,
// which bound it as forwarding candidate at fetch, still waits to
// issue; the divide's own consumers sit on its list across the churn.
func buildSlotReuse(iters int64) *prog.Program {
	b := prog.NewBuilder("slotreuse")
	b.GlobalWords("nthreads", []uint64{1})
	a := b.Global("a", 1)
	b.Li(1, 5)
	b.Li(6, 3)
	b.Fli(1, 9)
	b.Fli(2, 3)
	b.Li(9, 0)
	b.Li(10, iters)
	b.CountedLoop(9, 10, func() {
		b.St(1, 0, a)
		b.Div(5, 1, 6)           // 8 cycles, unpipelined: blocks commit behind it
		b.And(5, 5, isa.RegZero) // 0, but data-dependent on the divide
		b.Ld(3, 5, a)            // a+0: waits for the divide, candidate bound at fetch
		b.Fdiv(3, 1, 2)          // long-latency FP producer
		for k := 0; k < 6; k++ { // independent filler: churns slots
			b.Add(isa.Reg(11+k), 1, 6)
		}
		b.Add(2, 3, 1)  // consumes the load and the long-stale r1
		b.Fadd(4, 3, 1) // consumes the FP divide and the long-stale f1
	})
	b.Halt()
	return b.MustBuild()
}

// TestStaleHandleSlotReuse pins the stale-handle rule on a 16-entry
// window: references whose slot has been recycled must read as
// committed entries, so the production run is bit-identical to the
// scan × stepped reference and the mixed legs. A stepped run first
// proves the kernel really strands each kind of reference (the test is
// not vacuous).
func TestStaleHandleSlotReuse(t *testing.T) {
	m := tinyWindow()
	build := func() *prog.Program { return buildSlotReuse(200) }

	s, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	cl := s.clusters[0]
	stale := func(r ref) bool { return r.h != 0 && cl.resolve(r) == nil }
	var staleProducer, staleFwdWaiting, staleWriter int
	for !s.done() {
		s.step()
		eachInFlight(cl, func(h handle) bool {
			e := &cl.pool[h]
			if stale(e.producers[0]) || stale(e.producers[1]) {
				staleProducer++
			}
			if e.isLoad && e.state == stateDispatched && stale(e.fwdStore) {
				staleFwdWaiting++
			}
			return true
		})
		for _, r := range s.threads[0].lastWriterInt {
			if stale(r) {
				staleWriter++
			}
		}
	}
	if staleProducer == 0 || staleFwdWaiting == 0 || staleWriter == 0 {
		t.Fatalf("kernel did not strand references across slot reuse: %d stale producers, %d stale forwarding candidates on unissued loads, %d stale last-writers",
			staleProducer, staleFwdWaiting, staleWriter)
	}

	ref, _ := runMode(t, m, build, false, false)
	if ref.Committed == 0 {
		t.Fatal("nothing committed")
	}
	for _, md := range diffModes {
		if got, _ := runMode(t, m, build, md.eventIssue, md.ff); !reflect.DeepEqual(ref, got) {
			t.Errorf("%s differs from scan+stepped under slot reuse:\n  ref: %v\n  got: %v", md.name, ref, got)
		}
	}
}

// buildFPStream is a front end that never stalls: independent FP
// multiply chains, no memory traffic, a perfectly predicted loop.
func buildFPStream(threads int, iters int64) *prog.Program {
	b := prog.NewBuilder("fpstream")
	b.GlobalWords("nthreads", []uint64{uint64(threads)})
	for k := 1; k <= 12; k++ {
		b.Fli(isa.Reg(k), 1.0+float64(k)/16)
	}
	b.Fli(15, 1.0001)
	b.Li(9, 0)
	b.Li(10, iters)
	b.CountedLoop(9, 10, func() {
		for k := 1; k <= 12; k++ {
			b.Fmul(isa.Reg(k), isa.Reg(k), 15)
		}
	})
	b.Halt()
	return b.MustBuild()
}

// queueCaps lists the capacity of every fixed-size hot-loop container.
func queueCaps(s *Simulator) []int {
	var caps []int
	for _, cl := range s.clusters {
		caps = append(caps, len(cl.pool), cap(cl.free), cap(cl.ready),
			len(cl.pending.buf), cap(cl.wheel.ev), len(cl.stores.slots))
	}
	for _, th := range s.threads {
		caps = append(caps, len(th.fifo.buf))
	}
	return caps
}

// TestBoundedQueues is the regression test for the latent growth the
// pointer-based queues had (pending reset only when fully drained, fifo
// compacted only past 128 pops): after 200 k cycles of a front end that
// never stalls, every container still has its construction-time
// capacity. The pool itself is the window: WindowEntries usable slots,
// beside the reserved slot 0, of entries no larger than 160 bytes, so
// a field added to the entry has to find room in its padding.
func TestBoundedQueues(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 160 {
		t.Errorf("entry is %d bytes, over its 160", n)
	}
	m := config.LowEnd(config.SMT2)
	s, err := New(m, buildFPStream(m.Threads(), 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range s.clusters {
		if got := len(cl.pool) - 1; got != m.Arch.WindowEntries {
			t.Errorf("chip %d cluster %d: %d usable pool slots, want the window's %d", cl.chip, cl.idx, got, m.Arch.WindowEntries)
		}
	}
	before := queueCaps(s)
	if err := s.RunTo(200_000); err != nil {
		t.Fatal(err)
	}
	if s.Done() || s.committed < 200_000 {
		t.Fatalf("run too short to mean anything: done=%v, %d committed", s.Done(), s.committed)
	}
	if after := queueCaps(s); !reflect.DeepEqual(before, after) {
		t.Errorf("container capacities changed over the run:\nbefore %v\nafter  %v", before, after)
	}
}

// TestSteadyStateZeroAllocs asserts the entry pool's claim directly:
// once a run is warm (pages touched, scratch slices grown), advancing
// it 2000 cycles allocates nothing — under Simulator.RunTo (ff/wakeup)
// and under the reference loops that step the same stages one cycle at
// a time or issue by window scan (oracle_test.go), on a single-chip
// SMT, a 32-cluster machine and a multiprogrammed mix. Under RunTo the
// measured windows must include clusters going to sleep and waking
// (fmm's lock spinners among them): the sleep state is preallocated.
func TestSteadyStateZeroAllocs(t *testing.T) {
	app := func(name string, m config.Machine) func() (*Simulator, error) {
		return func() (*Simulator, error) {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			return New(m, w.Build(m.Threads(), m.Chips, workloads.SizeRef))
		}
	}
	cases := []struct {
		name string
		mk   func() (*Simulator, error)
	}{
		{"low-end/SMT2/ocean", app("ocean", config.LowEnd(config.SMT2))},
		{"high-end/FA8/fmm", app("fmm", config.HighEnd(config.FA8))},
		{"low-end/SMT2/multi", func() (*Simulator, error) {
			var jobs []*prog.Program
			for _, w := range []workloads.Workload{workloads.Ocean(), workloads.Fmm(), workloads.Swim(), workloads.Tomcatv()} {
				jobs = append(jobs, w.Build(1, 1, workloads.SizeRef))
			}
			return NewMulti(config.LowEnd(config.SMT2), jobs)
		}},
	}
	for _, tc := range cases {
		for _, ff := range []bool{false, true} {
			for _, eventIssue := range []bool{false, true} {
				name := tc.name + "/stepped"
				if ff {
					name = tc.name + "/ff"
				}
				if eventIssue {
					name += "/wakeup"
				} else {
					name += "/scan"
				}
				t.Run(name, func(t *testing.T) {
					probe, err := tc.mk()
					if err != nil {
						t.Fatal(err)
					}
					full, err := probe.Run() // every mode runs the same cycle count
					if err != nil {
						t.Fatal(err)
					}
					// AllocsPerRun truncates its average to an integer, so each
					// measurement is a single window (preceded by the warm-up
					// window AllocsPerRun itself runs).
					const window, measurements = 2000, 2
					warm := full.Cycles / 2
					if warm+2*measurements*window >= full.Cycles {
						t.Fatalf("run of %d cycles is too short for a %d-cycle warm-up and %d measured windows", full.Cycles, warm, measurements)
					}

					s, err := tc.mk()
					if err != nil {
						t.Fatal(err)
					}
					if err := advance(s, warm, eventIssue, ff); err != nil {
						t.Fatal(err)
					}
					slept := s.SleepStats().Slept
					for i := 0; i < measurements; i++ {
						allocs := testing.AllocsPerRun(1, func() {
							if err := advance(s, s.cycle+window, eventIssue, ff); err != nil {
								t.Fatal(err)
							}
						})
						if allocs != 0 {
							t.Errorf("%v allocations in a %d-cycle window ending at cycle %d, want 0", allocs, window, s.cycle)
						}
					}
					if s.Done() {
						t.Fatal("run finished inside the measured windows")
					}
					if ff && eventIssue && s.SleepStats().Slept == slept {
						t.Error("no cluster slept inside the measured windows")
					}
				})
			}
		}
	}
}

// auditPools runs the structural audit on every cluster.
func auditPools(t *testing.T, s *Simulator) {
	t.Helper()
	for _, cl := range s.clusters {
		if err := cl.audit(); err != nil {
			t.Fatalf("cycle %d: %v", s.cycle, err)
		}
	}
}

// TestEntryPoolConservation is the pool's leak check: on every preset
// and both machines, under the production issue stage and the window
// scan it is defined by, the run pauses every 5 k
// cycles and each cluster must pass audit — every slot free or in one
// thread's fifo exactly once, every handle any structure holds naming
// an in-flight entry of the right kind, the waiting tallies agreeing
// with the fifos. At completion every slot must be back on the free
// stack and the fifos, wheel, queues and store table empty.
func TestEntryPoolConservation(t *testing.T) {
	w := workloads.Ocean()
	for _, arch := range config.AllArchs {
		for _, m := range []config.Machine{config.LowEnd(arch), config.HighEnd(arch)} {
			for _, eventIssue := range []bool{false, true} {
				name := m.Name + "/scan"
				if eventIssue {
					name = m.Name + "/wakeup"
				}
				t.Run(name, func(t *testing.T) {
					s, err := New(m, w.Build(m.Threads(), m.Chips, workloads.SizeRef))
					if err != nil {
						t.Fatal(err)
					}
					audits := 0
					for target := int64(5000); !s.Done(); target += 5000 {
						if err := advance(s, target, eventIssue, true); err != nil {
							t.Fatal(err)
						}
						auditPools(t, s)
						audits++
					}
					if audits < 2 {
						t.Fatalf("only %d audits; lengthen the workload", audits)
					}
					for _, cl := range s.clusters {
						inFlight := 0
						for _, th := range cl.threads {
							inFlight += th.fifo.len()
						}
						if len(cl.free) != len(cl.pool)-1 || inFlight != 0 || len(cl.wheel.ev) != 0 ||
							cl.pending.len() != 0 || len(cl.ready) != 0 || cl.stores.live != 0 {
							t.Errorf("chip %d cluster %d not drained at completion: %d of %d slots free, fifos %d, wheel %d, pending %d, ready %d, stores %d",
								cl.chip, cl.idx, len(cl.free), len(cl.pool)-1, inFlight, len(cl.wheel.ev), cl.pending.len(), len(cl.ready), cl.stores.live)
						}
					}
				})
			}
		}
	}
}
