package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/prog"
	"clustersmt/internal/snap"
	"clustersmt/internal/workloads"
)

// checkpointSpec is the workload the checkpoint differentials run: a
// synthetic kernel exercising every subsystem a snapshot must carry —
// FP chains (float accumulators), memory traffic (caches, MSHRs, TLB,
// directory), a serial section (sync blocking) and a warm-up prefix.
func checkpointSpec() workloads.SyntheticSpec {
	return workloads.SyntheticSpec{
		ParCap: 6, ChainLen: 2, IndepOps: 2, MemOps: 2,
		FootprintKB: 64, Iters: 768, SerialIters: 48, Steps: 2,
		WarmupIters: 200,
	}
}

// offCounters collects the counters a Result does not carry — per-chip
// cache, bank, TLB and MSHR state, directory population, network
// arbitration — so the differentials prove the whole machine restored,
// not just the reported figures.
type offCounters struct {
	Chips []chipCounters
	Dir   struct {
		Lines                                           int
		Invalidations, Downgrades, Writebacks, ThreeHop uint64
	}
	NetMessages, NetConflicts, NetBusy uint64
}

type chipCounters struct {
	L1Hits, L1Misses, L1Evict, L1Wb     uint64
	L2Hits, L2Misses, L2Evict, L2Wb     uint64
	L1BankConf, L1BankBusy              uint64
	L2BankConf, L2BankBusy              uint64
	TLBHit, TLBMiss, TLBMissStalls      uint64
	MSHRMerges, MSHRRejected, MSHRAlloc uint64
}

func offCountersOf(s *Simulator) offCounters {
	var o offCounters
	sys := s.msys
	for _, c := range sys.Chips {
		o.Chips = append(o.Chips, chipCounters{
			L1Hits: c.L1.Hits, L1Misses: c.L1.Misses, L1Evict: c.L1.Evictions, L1Wb: c.L1.WritebackEvictions,
			L2Hits: c.L2.Hits, L2Misses: c.L2.Misses, L2Evict: c.L2.Evictions, L2Wb: c.L2.WritebackEvictions,
			L1BankConf: c.L1Banks.Conflicts, L1BankBusy: c.L1Banks.BusyCycles,
			L2BankConf: c.L2Banks.Conflicts, L2BankBusy: c.L2Banks.BusyCycles,
			TLBHit: c.TLB.Hit, TLBMiss: c.TLB.Miss, TLBMissStalls: c.TLBMissStalls,
			MSHRMerges: c.MSHR.Merges, MSHRRejected: c.MSHR.Rejected, MSHRAlloc: c.MSHR.Allocated,
		})
	}
	o.Dir.Lines = sys.Dir.Lines()
	o.Dir.Invalidations = sys.Dir.Invalidations
	o.Dir.Downgrades = sys.Dir.Downgrades
	o.Dir.Writebacks = sys.Dir.Writebacks
	o.Dir.ThreeHop = sys.Dir.ThreeHops
	o.NetMessages = sys.Net.Messages
	o.NetConflicts = sys.Net.Conflicts
	o.NetBusy = sys.Net.BusyCycles
	return o
}

// compareRuns asserts two completed simulators agree on the Result, the
// off-Result counters and the observability frames.
func compareRuns(t *testing.T, label string, want, got *Result, ws, gs *Simulator) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: Result diverged:\nwant %+v\ngot  %+v", label, want, got)
	}
	if wo, go_ := offCountersOf(ws), offCountersOf(gs); !reflect.DeepEqual(wo, go_) {
		t.Errorf("%s: off-Result counters diverged:\nwant %+v\ngot  %+v", label, wo, go_)
	}
	wr, gr := ws.Metrics(), gs.Metrics()
	if (wr == nil) != (gr == nil) {
		t.Fatalf("%s: metrics ring presence differs", label)
	}
	if wr != nil {
		if !reflect.DeepEqual(wr.Frames(), gr.Frames()) {
			t.Errorf("%s: obs frames diverged (%d vs %d frames)", label, len(wr.Frames()), len(gr.Frames()))
		}
		if wr.Dropped() != gr.Dropped() {
			t.Errorf("%s: obs drop accounting diverged: %d vs %d", label, wr.Dropped(), gr.Dropped())
		}
	}
}

// TestCheckpointDifferential is the contract test for checkpoint/
// restore and fork: on every Table 2 preset, low- and high-end, a run
// resumed from a mid-run snapshot — and a run forked from a paused
// parent, and the parent itself continuing — must be bit-identical
// (reflect.DeepEqual on the full Result, the off-Result memory/coherence
// counters and the obs frames) to running from scratch. The /parallel
// legs set the deprecated, ignored Parallel field on every simulator
// they pause, restore and fork, and are held to the same sequential
// run from scratch: setting it must change nothing.
func TestCheckpointDifferential(t *testing.T) {
	w := workloads.Synthetic(checkpointSpec())
	for _, arch := range config.AllArchs {
		for _, highEnd := range []bool{false, true} {
			m := config.LowEnd(arch)
			if highEnd {
				m = config.HighEnd(arch)
			}
			for _, par := range []bool{false, true} {
				name := m.Name + "/sequential"
				if par {
					name = m.Name + "/parallel"
				}
				t.Run(name, func(t *testing.T) {
					build := func() *prog.Program {
						return w.Build(m.Threads(), m.Chips, workloads.SizeTest)
					}
					mkSim := func() *Simulator {
						s, err := New(m, build())
						if err != nil {
							t.Fatal(err)
						}
						s.EnableMetrics(2048, 64)
						return s
					}
					run := func(s *Simulator) *Result {
						r, err := s.Run()
						if err != nil {
							t.Fatal(err)
						}
						return r
					}

					scratch := mkSim()
					ref := run(scratch)
					half := ref.Cycles / 2
					if half < 1 {
						half = 1
					}

					// Snapshot → Restore → continue.
					paused := mkSim()
					paused.Parallel = par
					if err := paused.RunTo(half); err != nil {
						t.Fatal(err)
					}
					data, err := paused.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					restored, err := Restore(m, build(), data)
					if err != nil {
						t.Fatal(err)
					}
					restored.Parallel = par
					compareRuns(t, "restore", ref, run(restored), scratch, restored)

					// Fork → child continues; the snapshotted parent also
					// continues (snapshot and fork must not perturb it).
					child, err := paused.ForkProgram(paused.Program)
					if err != nil {
						t.Fatal(err)
					}
					child.Parallel = par
					compareRuns(t, "fork-child", ref, run(child), scratch, child)
					compareRuns(t, "parent-continue", ref, run(paused), scratch, paused)
				})
			}
		}
	}
}

// TestForkCrossVariant checks the warm-up amortization primitive: a
// parent paused inside the shared warm-up prefix forks into a program
// variant with different post-prefix code, and the child's full run is
// bit-identical to running that variant from scratch. Both the
// in-memory ForkProgram path and the serialized Snapshot→Restore path
// are exercised.
func TestForkCrossVariant(t *testing.T) {
	base := checkpointSpec()
	base.WarmupIters = 1500
	variant := base
	variant.ChainLen = 6
	variant.IndepOps = 0
	variant.Iters = 512

	for _, m := range []config.Machine{config.LowEnd(config.FA4), config.HighEnd(config.SMT4)} {
		t.Run(m.Name, func(t *testing.T) {
			buildBase := workloads.Synthetic(base).Build
			buildVar := workloads.Synthetic(variant).Build

			parent, err := New(m, buildBase(m.Threads(), m.Chips, workloads.SizeTest))
			if err != nil {
				t.Fatal(err)
			}
			parent.EnableMetrics(2048, 64)
			if err := parent.RunTo(1000); err != nil {
				t.Fatal(err)
			}
			if parent.Done() {
				t.Fatal("warm-up finished before the pause point; lengthen WarmupIters")
			}
			if !parent.PrefixValid() {
				t.Fatalf("execution escaped the prefix during warm-up (high water %d, prefix %d)",
					parent.PCHighWater(), parent.Program.PrefixLen)
			}

			scratch, err := New(m, buildVar(m.Threads(), m.Chips, workloads.SizeTest))
			if err != nil {
				t.Fatal(err)
			}
			scratch.EnableMetrics(2048, 64)
			ref, err := scratch.Run()
			if err != nil {
				t.Fatal(err)
			}

			child, err := parent.ForkProgram(buildVar(m.Threads(), m.Chips, workloads.SizeTest))
			if err != nil {
				t.Fatal(err)
			}
			got, err := child.Run()
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, "fork-variant", ref, got, scratch, child)

			data, err := parent.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(m, buildVar(m.Threads(), m.Chips, workloads.SizeTest), data)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := restored.Run()
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, "restore-variant", ref, got2, scratch, restored)
		})
	}
}

// TestProgramAcceptance tables which programs ForkProgram and Restore
// take over a paused simulator's state — the same pointer, an equal
// fingerprint, or an equal prefix key while the state is still
// prefix-only — and the refusal each gives otherwise. Both try the
// prefix key before the fingerprint; the accepted set must not depend
// on that order.
func TestProgramAcceptance(t *testing.T) {
	m := config.LowEnd(config.FA4)
	build := func(mut func(*workloads.SyntheticSpec)) *prog.Program {
		spec := checkpointSpec()
		spec.WarmupIters = 1500
		if mut != nil {
			mut(&spec)
		}
		return workloads.Synthetic(spec).Build(m.Threads(), m.Chips, workloads.SizeTest)
	}
	variant := func(s *workloads.SyntheticSpec) { s.ChainLen, s.Iters = 6, 512 }
	noPrefix := func(s *workloads.SyntheticSpec) { s.WarmupIters = 0 }
	otherImage := func(s *workloads.SyntheticSpec) { s.FootprintKB = 128 }

	const (
		noShared = "programs share no marked prefix"
		ranPast  = "execution ran past the shared prefix"
		restore  = "program differs and no shared warm-up prefix applies"
	)
	for _, c := range []struct {
		name         string
		parent       func(*workloads.SyntheticSpec)
		pastPrefix   bool // pause after execution has left the prefix
		samePointer  bool
		child        func(*workloads.SyntheticSpec)
		fork, reload string // wanted refusal; "" = accepted
	}{
		{name: "same pointer in prefix", samePointer: true},
		{name: "same pointer past prefix", pastPrefix: true, samePointer: true},
		{name: "same fingerprint no prefix", parent: noPrefix, child: noPrefix},
		{name: "same fingerprint past prefix", pastPrefix: true},
		{name: "equal prefix in prefix", child: variant},
		{name: "equal prefix past prefix", pastPrefix: true, child: variant, fork: ranPast, reload: restore},
		{name: "different prefix", child: otherImage, fork: noShared, reload: restore},
		{name: "prefix against none", child: noPrefix, fork: noShared, reload: restore},
	} {
		t.Run(c.name, func(t *testing.T) {
			parent, err := New(m, build(c.parent))
			if err != nil {
				t.Fatal(err)
			}
			pause := int64(1000)
			if err := parent.RunTo(pause); err != nil {
				t.Fatal(err)
			}
			for c.pastPrefix && parent.PrefixValid() {
				pause += 500
				if err := parent.RunTo(pause); err != nil {
					t.Fatal(err)
				}
			}
			if parent.Done() {
				t.Fatal("parent finished before the pause point")
			}
			if c.parent == nil && parent.PrefixValid() == c.pastPrefix {
				t.Fatalf("at cycle %d PrefixValid = %v (high water %d, prefix %d)",
					pause, parent.PrefixValid(), parent.PCHighWater(), parent.Program.PrefixLen)
			}
			data, err := parent.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			child := parent.Program
			if !c.samePointer {
				child = build(c.child)
			}
			check := func(op string, err error, want string) {
				t.Helper()
				switch {
				case want == "" && err != nil:
					t.Errorf("%s refused: %v", op, err)
				case want != "" && (!errors.Is(err, ErrSnapshotMismatch) || !strings.Contains(err.Error(), want)):
					t.Errorf("%s: got %v, want ErrSnapshotMismatch %q", op, err, want)
				}
			}
			_, err = parent.ForkProgram(child)
			check("ForkProgram", err, c.fork)
			_, err = Restore(m, child, data)
			check("Restore", err, c.reload)
		})
	}
}

// snapshotFixture builds a small paused simulator and its snapshot for
// the error-path tests.
func snapshotFixture(t *testing.T) (config.Machine, func() *prog.Program, *Simulator, []byte) {
	t.Helper()
	m := config.LowEnd(config.FA4)
	w := workloads.Synthetic(checkpointSpec())
	build := func() *prog.Program { return w.Build(m.Threads(), m.Chips, workloads.SizeTest) }
	s, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunTo(500); err != nil {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return m, build, s, data
}

// TestSnapshotVersionError checks that a checkpoint with an unknown
// format version is refused with the typed error.
func TestSnapshotVersionError(t *testing.T) {
	m, build, _, data := snapshotFixture(t)
	bad := append([]byte(nil), data...)
	bad[4]++ // version is the little-endian u32 at offset 4
	if _, err := Restore(m, build(), bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("got %v, want ErrSnapshotVersion", err)
	}
}

// TestSnapshotTruncated checks that cut-off payloads surface the typed
// truncation error at every plausible cut point, without panicking.
func TestSnapshotTruncated(t *testing.T) {
	m, build, _, data := snapshotFixture(t)
	for _, n := range []int{0, 3, 7, 40, 80, len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Restore(m, build(), data[:n]); !errors.Is(err, ErrSnapshotTruncated) {
			t.Errorf("truncation at %d of %d: got %v, want ErrSnapshotTruncated", n, len(data), err)
		}
	}
	bloated := append(append([]byte(nil), data...), 0)
	if _, err := Restore(m, build(), bloated); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("trailing byte: got %v, want ErrSnapshotCorrupt", err)
	}
	badMagic := append([]byte(nil), data...)
	badMagic[0] ^= 0xff
	if _, err := Restore(m, build(), badMagic); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("bad magic: got %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSnapshotMismatch checks machine- and program-identity rejection.
func TestSnapshotMismatch(t *testing.T) {
	m, build, _, data := snapshotFixture(t)
	other := config.HighEnd(config.FA4)
	if _, err := Restore(other, build(), data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("machine mismatch: got %v, want ErrSnapshotMismatch", err)
	}
	spec := checkpointSpec()
	spec.FootprintKB = 128 // different data image: prefix key differs too
	ow := workloads.Synthetic(spec)
	if _, err := Restore(m, ow.Build(m.Threads(), m.Chips, workloads.SizeTest), data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("program mismatch: got %v, want ErrSnapshotMismatch", err)
	}
}

// TestSnapshotUnsupported checks the refused configurations.
func TestSnapshotUnsupported(t *testing.T) {
	m := config.LowEnd(config.SMT4)
	w := workloads.Synthetic(checkpointSpec())
	p := w.Build(m.Threads(), m.Chips, workloads.SizeTest)

	multi, err := NewMulti(m, []*prog.Program{p, p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := multi.Snapshot(); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("multiprogrammed: got %v, want ErrSnapshotUnsupported", err)
	}
}

// TestFailedForkLeavesParentIntact checks the no-partial-mutation
// contract from the caller's side: after a refused ForkProgram (no
// shared prefix), the parent continues to a Result identical to an
// undisturbed twin's.
func TestFailedForkLeavesParentIntact(t *testing.T) {
	m := config.LowEnd(config.FA2)
	w := workloads.Synthetic(checkpointSpec())
	build := func() *prog.Program { return w.Build(m.Threads(), m.Chips, workloads.SizeTest) }

	twin, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := twin.Run()
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunTo(ref.Cycles / 2); err != nil {
		t.Fatal(err)
	}
	spec := checkpointSpec()
	spec.FootprintKB = 128
	incompatible := workloads.Synthetic(spec).Build(m.Threads(), m.Chips, workloads.SizeTest)
	if _, err := s.ForkProgram(incompatible); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("incompatible fork: got %v, want ErrSnapshotMismatch", err)
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("parent perturbed by failed fork:\nwant %+v\ngot  %+v", ref, got)
	}
}

// damagedPoolSnapshots returns checkpoints of the fixture run whose
// entry-pool bookkeeping was damaged just before encoding (Snapshot
// does not audit; Restore must): a handle past the pool in a thread
// fifo, one slot in a thread fifo twice, one slot on the free stack
// twice (the array form of a free-list cycle), and an in-flight slot
// also on the free stack. The run is taken early, while the first
// cluster with two free and two in-flight slots exists to damage.
func damagedPoolSnapshots(tb testing.TB) map[string][]byte {
	tb.Helper()
	// fifo returns the i-th slot of the cluster's (one) thread fifo.
	fifo := func(cl *cluster, i int) *handle {
		f := &cl.threads[0].fifo
		return &f.buf[(f.head+i)%len(f.buf)]
	}
	damage := map[string]func(cl *cluster){
		"out-of-range handle":     func(cl *cluster) { *fifo(cl, 0) = handle(len(cl.pool)) },
		"duplicate slot":          func(cl *cluster) { *fifo(cl, 1) = *fifo(cl, 0) },
		"free-list cycle":         func(cl *cluster) { cl.free[0] = cl.free[len(cl.free)-1] },
		"live slot on free stack": func(cl *cluster) { cl.free[0] = *fifo(cl, 0) },
	}
	m := config.LowEnd(config.FA4)
	w := workloads.Synthetic(checkpointSpec())
	out := make(map[string][]byte, len(damage))
	for name, hurt := range damage {
		s, err := New(m, w.Build(m.Threads(), m.Chips, workloads.SizeTest))
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.RunTo(30); err != nil {
			tb.Fatal(err)
		}
		var cl *cluster
		for _, c := range s.clusters {
			if len(c.free) >= 2 && c.threads[0].fifo.len() >= 2 {
				cl = c
				break
			}
		}
		if cl == nil {
			tb.Fatal("no fixture cluster has two free and two in-flight slots to damage")
		}
		hurt(cl)
		if out[name], err = s.Snapshot(); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// TestSnapshotCorruptPool checks that every kind of damaged pool
// bookkeeping is refused with ErrSnapshotCorrupt.
func TestSnapshotCorruptPool(t *testing.T) {
	m := config.LowEnd(config.FA4)
	p := workloads.Synthetic(checkpointSpec()).Build(m.Threads(), m.Chips, workloads.SizeTest)
	for name, data := range damagedPoolSnapshots(t) {
		if _, err := Restore(m, p, data); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: got %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

// TestSnapshotLeafViolations damages one field inside each leaf section
// of an otherwise valid checkpoint — a value the section's own XferSnap
// range-checks while decoding — and requires Restore to refuse every
// one with ErrSnapshotCorrupt: the validation lives in the leaves, the
// typed error is core's.
func TestSnapshotLeafViolations(t *testing.T) {
	m := config.HighEnd(config.SMT2)
	p := workloads.Synthetic(checkpointSpec()).Build(m.Threads(), m.Chips, workloads.SizeTest)
	s, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableMetrics(100, 8)
	if err := s.RunTo(500); err != nil {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(m, p, data); err != nil {
		t.Fatalf("undamaged checkpoint: %v", err)
	}

	// Sections are located from the back of the payload: it ends with the
	// memory system (chips, then directory, network, stats), preceded by
	// the functional memory, preceded by the core section, whose last
	// part is the sampler ring.
	size := func(sec interface{ XferSnap(*snap.Xfer) }) int {
		w := snap.NewWriter()
		sec.XferSnap(w.Xfer())
		return w.Len()
	}
	chip0 := s.msys.Chips[0]
	l1 := len(data) - size(s.msys)
	w := snap.NewWriter()
	s.obs.ring.XferSnap(w.Xfer(), len(s.clusters))
	ring := l1 - size(s.mem) - w.Len()
	mshr := l1 + size(chip0) - 8 - size(chip0.MSHR) // a chip ends: MSHR file, one counter
	dir := len(data) - size(&s.msys.Stats) - size(s.msys.Net) - size(s.msys.Dir)
	// A directory slot is line (8 bytes), sharers (4), owner (1), state
	// (1), after the table's 8-byte slot count; state 1 is a full slot.
	const slotBytes, slotsAt = 14, 8
	full := -1
	for i := 0; i < int(binary.LittleEndian.Uint64(data[dir:])) && full < 0; i++ {
		if data[dir+slotsAt+slotBytes*i+13] == 1 {
			full = dir + slotsAt + slotBytes*i
		}
	}
	if full < 0 || s.obs.ring.Len() == 0 {
		t.Fatalf("fixture too idle: full directory slot at %d, %d frames", full, s.obs.ring.Len())
	}
	l1Ways := m.Mem.L1SizeKB * 1024 / m.Mem.LineBytes // 17 bytes a way, after the 8-byte way count

	for name, hurt := range map[string]func(b []byte){
		"directory slot state > dead":  func(b []byte) { b[dir+slotsAt+13] = 3 },
		"sharer mask beyond the chips": func(b []byte) { b[full+8+3] = 0x80 },
		"L1 MRU hint out of range":     func(b []byte) { b[l1+8+17*l1Ways] = 0xff },
		"MSHR capacity mismatch":       func(b []byte) { b[mshr]++ },
		"ring pushed < count":          func(b []byte) { clear(b[ring+16 : ring+24]) },
	} {
		bad := append([]byte(nil), data...)
		hurt(bad)
		if _, err := Restore(m, p, bad); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: got %v, want ErrSnapshotCorrupt", name, err)
		}
	}

	// A well-formed payload whose oldest frame lists one cluster more
	// than the machine has: the ring's accounting (24 bytes) and the
	// frame's scalars and slots (128) precede the count, and a cluster
	// entry is chip, cluster and slots (80).
	at := ring + 24 + 128
	if n := binary.LittleEndian.Uint64(data[at:]); n != uint64(len(s.clusters)) {
		t.Fatalf("oldest frame lists %d clusters at byte %d, want %d", n, at, len(s.clusters))
	}
	bad := slices.Concat(data[:at+8], make([]byte, 80), data[at+8:])
	binary.LittleEndian.PutUint64(bad[at:], uint64(len(s.clusters)+1))
	if _, err := Restore(m, p, bad); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("frame with %d clusters on a %d-cluster machine: got %v, want ErrSnapshotCorrupt",
			len(s.clusters)+1, len(s.clusters), err)
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes to Restore: it must reject
// them with an error, never panic. Seeded with a valid snapshot so the
// fuzzer starts inside the interesting decode paths, and with the
// damaged-pool checkpoints so it starts inside the audit too.
func FuzzSnapshotDecode(f *testing.F) {
	m := config.LowEnd(config.FA4)
	w := workloads.Synthetic(checkpointSpec())
	build := func() *prog.Program { return w.Build(m.Threads(), m.Chips, workloads.SizeTest) }
	s, err := New(m, build())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.RunTo(400); err != nil {
		f.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	damaged := damagedPoolSnapshots(f)
	for _, name := range []string{"out-of-range handle", "duplicate slot", "free-list cycle"} {
		f.Add(damaged[name])
	}
	p := build()
	f.Fuzz(func(t *testing.T, b []byte) {
		sim, err := Restore(m, p, b)
		if err == nil && sim == nil {
			t.Fatal("nil simulator without error")
		}
	})
}

// TestSnapshotGolden decodes the committed fixture — a checkpoint
// written by an earlier build — and runs it to completion, comparing
// against a from-scratch run of the same program. This is the format-
// compatibility tripwire: any encoding change that invalidates old
// checkpoints must bump SnapshotVersion and regenerate the fixture,
// whose name follows the version (WRITE_GOLDEN=1 go test
// ./internal/core -run TestSnapshotGolden writes it); a fixture for any
// other version left in testdata fails the test.
// It also pins that Restore→Snapshot reproduces the payload byte for
// byte, and that the fixture under the version word before or after
// this build's is refused with the typed version error rather than
// misread.
func TestSnapshotGolden(t *testing.T) {
	golden := filepath.Join("testdata", fmt.Sprintf("checkpoint_v%d.bin", SnapshotVersion))
	m := config.LowEnd(config.FA4)
	w := workloads.Synthetic(checkpointSpec())
	build := func() *prog.Program { return w.Build(m.Threads(), m.Chips, workloads.SizeTest) }

	if os.Getenv("WRITE_GOLDEN") != "" {
		s, err := New(m, build())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunTo(500); err != nil {
			t.Fatal(err)
		}
		data, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(data))
	}

	fixtures, err := filepath.Glob(filepath.Join("testdata", "checkpoint_v*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fixtures {
		if f != golden {
			t.Errorf("stale fixture %s beside %s: delete it", f, golden)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with WRITE_GOLDEN=1): %v", err)
	}
	restored, err := Restore(m, build(), data)
	if err != nil {
		t.Fatalf("golden fixture no longer decodes — bump SnapshotVersion and regenerate: %v", err)
	}
	if again, err := restored.Snapshot(); err != nil || !bytes.Equal(again, data) {
		t.Errorf("Restore→Snapshot is not byte-identical to the fixture (err %v, %d vs %d bytes)", err, len(again), len(data))
	}
	for _, v := range []uint32{SnapshotVersion - 1, SnapshotVersion + 1} {
		w := snap.NewWriter()
		w.U32(snapMagic)
		w.U32(v)
		if _, err := Restore(m, build(), append(w.Bytes(), data[8:]...)); !errors.Is(err, ErrSnapshotVersion) {
			t.Errorf("version %d: got %v, want ErrSnapshotVersion", v, err)
		}
	}
	got, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	want, err := scratch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("golden checkpoint run diverged from scratch run:\nwant %+v\ngot  %+v", want, got)
	}
}
