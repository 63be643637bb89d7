package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// TestStoreForwardingMap pins the cluster's store-forwarding table: a
// load must bind the youngest older same-address store (not the
// first), and commit must retire mappings so the table drains with the
// in-flight stores.
func TestStoreForwardingMap(t *testing.T) {
	b := prog.NewBuilder("fwdmap")
	b.GlobalWords("nthreads", []uint64{1})
	a := b.Global("a", 1)
	other := b.Global("other", 1)
	b.Li(1, 7)
	b.Li(2, 9)
	b.Fli(1, 3)
	b.Fdiv(2, 1, 1)   // long-latency commit blocker: keeps the stores in-window
	b.St(1, 0, a)     // older store to a
	b.St(2, 0, a)     // younger store to a — the forwarding answer
	b.St(1, 0, other) // different address: must not shadow a
	b.Ld(3, 0, a)
	b.Halt()

	m := config.LowEnd(config.FA1)
	s, err := New(m, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	s.step() // cycle 0 fetches the whole straight-line body

	th := s.threads[0]
	cl := th.cluster
	var stores []handle
	var load *entry
	for i := 0; i < th.fifo.len(); i++ {
		h := th.fifo.at(i)
		if e := &cl.pool[h]; e.isStore {
			stores = append(stores, h)
		} else if e.isLoad {
			load = e
		}
	}
	if len(stores) != 3 || load == nil {
		t.Fatalf("fetch did not dispatch the kernel in one cycle: %d stores, load %v", len(stores), load)
	}
	if want := cl.refOf(stores[1]); load.fwdStore != want {
		t.Errorf("load bound %+v as forwarding candidate, want the younger same-address store %+v", load.fwdStore, want)
	}
	if got := cl.stores.get(load.tid, load.d.Addr); got != stores[1] {
		t.Errorf("store table maps a to slot %d, want the younger store's slot %d", got, stores[1])
	}
	if got, want := cl.forwardingStore(load), forwardingStoreScan(cl, th, load); got != want {
		t.Errorf("table answer %v disagrees with reference FIFO scan %v", got, want)
	}

	for !s.done() {
		s.step()
	}
	if cl.stores.live != 0 {
		t.Errorf("store table holds %d mappings after all stores committed, want 0", cl.stores.live)
	}
	if r := s.result(); r.ForwardedLoads != 1 {
		t.Errorf("ForwardedLoads = %d, want 1", r.ForwardedLoads)
	}
}

// buildRandomKernel emits a deterministic pseudo-random mix of integer,
// FP, load and store work: dependence chains of random shape, random
// same-address store/load collisions, and a barrier so threads
// interleave. Register r9/r10 carry the loop and are never clobbered.
func buildRandomKernel(seed int64, threads int) *prog.Program {
	rng := rand.New(rand.NewSource(seed))
	b := prog.NewBuilder(fmt.Sprintf("rand%d", seed))
	b.GlobalWords("nthreads", []uint64{uint64(threads)})
	data := b.Global("data", 32)

	for r := 1; r <= 6; r++ {
		b.Li(isa.Reg(r), rng.Int63n(50)+1)
	}
	for f := 1; f <= 4; f++ {
		b.Fli(isa.Reg(f), float64(rng.Intn(9)+1))
	}
	b.Li(9, 0)
	b.Li(10, int64(6+rng.Intn(6)))
	b.CountedLoop(9, 10, func() {
		n := 20 + rng.Intn(30)
		for k := 0; k < n; k++ {
			ri := func() isa.Reg { return isa.Reg(1 + rng.Intn(6)) }
			rf := func() isa.Reg { return isa.Reg(1 + rng.Intn(4)) }
			slot := data + 8*int64(rng.Intn(32))
			switch rng.Intn(8) {
			case 0:
				b.Add(ri(), ri(), ri())
			case 1:
				b.Mul(ri(), ri(), ri())
			case 2:
				b.Fadd(rf(), rf(), rf())
			case 3:
				b.Fmul(rf(), rf(), rf())
			case 4:
				b.Fdiv(rf(), rf(), rf())
			case 5:
				b.Ld(ri(), 0, slot)
			case 6:
				b.St(ri(), 0, slot)
			case 7:
				b.Stf(rf(), 0, slot)
			}
		}
	})
	b.Barrier(0)
	b.Halt()
	return b.MustBuild()
}

// TestWakeupICountDifferential covers the ICOUNT fetch policy on the
// wakeup path (the compute-bound benchmark runs ICOUNT + wakeup): with
// the fetch pick order driven by in-flight counts instead of
// round-robin, scan and wakeup must still produce bit-identical
// Results, stepped and fast-forwarded alike.
func TestWakeupICountDifferential(t *testing.T) {
	m := config.LowEnd(config.SMT2)
	run := func(eventIssue, ff bool) *Result {
		s, err := New(m, buildRandomKernel(7, m.Threads()))
		if err != nil {
			t.Fatal(err)
		}
		s.SetICountFetch(true)
		return runSim(t, s, eventIssue, ff)
	}
	ref := run(false, false)
	for _, mode := range diffModes {
		if got := run(mode.eventIssue, mode.ff); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s result differs from scan+stepped under ICOUNT:\n  ref: %v\n  got: %v", mode.name, ref, got)
		}
	}
}

// TestWakeupSlotConservationRandom is the issue stage's property test:
// over random synthetic workloads the §4.1 conservation invariant —
// slot categories sum to chip width × cycles × chips — must hold, the
// per-cycle issue-state audit must pass, and the full Result must stay
// bit-identical to the scan's. The kernels are built to collide stores
// with loads and to hang consumers behind loads, so the audit must
// have met waiting entries and forwarding loads.
func TestWakeupSlotConservationRandom(t *testing.T) {
	archs := []config.Arch{config.FA8, config.SMT2, config.SMT1}
	var seen issueAudit
	for seed := int64(1); seed <= 4; seed++ {
		for _, arch := range archs {
			m := config.LowEnd(arch)
			name := fmt.Sprintf("seed%d/%s", seed, m.Name)
			t.Run(name, func(t *testing.T) {
				build := func() *prog.Program {
					return buildRandomKernel(seed, m.Threads())
				}
				s, err := New(m, build())
				if err != nil {
					t.Fatal(err)
				}
				audit := new(issueAudit)
				wake, err := refLoop{audit: audit}.run(s)
				if err != nil {
					t.Fatal(err)
				}
				seen.waiting += audit.waiting
				seen.forwarding += audit.forwarding

				want := float64(8 * wake.Cycles * int64(m.Chips))
				got := wake.Slots.TotalSlots()
				if math.Abs(got-want) > 1e-6*want {
					t.Errorf("slot conservation violated: got %.6f, want %.6f", got, want)
				}

				scan, _ := runMode(t, m, build, false, false)
				if !reflect.DeepEqual(scan, wake) {
					t.Errorf("result differs from scan on random kernel:\n  scan:   %v\n  wakeup: %v", scan, wake)
				}
			})
		}
	}
	if seen.waiting == 0 || seen.forwarding == 0 {
		t.Errorf("issue-state audit is vacuous: %d waiting entries, %d forwarding loads seen", seen.waiting, seen.forwarding)
	}
}
