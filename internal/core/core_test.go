package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/isa"
	"clustersmt/internal/parallel"
	"clustersmt/internal/prog"
)

// buildVectorSum builds a parallel kernel: each thread sums its chunk
// of data[] into partial[tid]; thread 0 reduces after a barrier.
func buildVectorSum(n int64, threads int) *prog.Program {
	b := prog.NewBuilder("vsum")
	b.GlobalWords("nthreads", []uint64{uint64(threads)})
	data := b.Global("data", n)
	b.Global("partial", 64)
	b.Global("out", 1)
	for i := int64(0); i < n; i++ {
		// Initialize via image below (builder Global is zeroed).
	}

	b.Mov(1, 30) // r1 = tid
	b.Ld(2, 0, b.MustAddr("nthreads"))
	b.Li(7, n)
	b.Mul(3, 1, 7)
	b.Div(3, 3, 2) // lo
	b.Addi(4, 1, 1)
	b.Mul(4, 4, 7)
	b.Div(4, 4, 2) // hi
	b.Li(5, 0)
	b.CountedLoop(3, 4, func() {
		b.Shli(6, 3, 3)
		b.Ld(8, 6, data)
		b.Add(5, 5, 8)
	})
	b.Shli(6, 1, 3)
	b.St(5, 6, b.MustAddr("partial"))
	b.Barrier(0)
	b.IfThread0(func() {
		b.Li(5, 0)
		b.Li(3, 0)
		b.CountedLoop(3, 2, func() {
			b.Shli(6, 3, 3)
			b.Ld(8, 6, b.MustAddr("partial"))
			b.Add(5, 5, 8)
		})
		b.St(5, 0, b.MustAddr("out"))
	})
	b.Halt()
	p := b.MustBuild()
	for i := int64(0); i < n; i++ {
		p.Init.Set(p.SymbolAddr("data")+i*prog.WordSize, uint64(i))
	}
	return p
}

func runOn(t *testing.T, m config.Machine, p *prog.Program) *Result {
	t.Helper()
	sim, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.MaxCycles = 50_000_000
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleThreadSequentialProgram(t *testing.T) {
	b := prog.NewBuilder("seq")
	out := b.Global("out", 1)
	b.Li(1, 0)
	b.Li(2, 100)
	b.Li(3, 0)
	b.CountedLoop(1, 2, func() {
		b.Add(3, 3, 1)
	})
	b.St(3, 0, out)
	b.Halt()
	p := b.MustBuild()

	m := config.LowEnd(config.FA1)
	sim, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Mem().Load(p.SymbolAddr("out")); got != 4950 {
		t.Fatalf("out = %d, want 4950", got)
	}
	if res.Committed == 0 || res.Cycles == 0 {
		t.Fatal("no progress recorded")
	}
	if res.IPC <= 0 || res.IPC > 8 {
		t.Fatalf("IPC = %v out of range", res.IPC)
	}
}

// TestTimingMatchesFunctional: the timing simulator must leave memory in
// exactly the same state as the pure-functional reference for every
// architecture, because both drive the same functional engine.
func TestTimingMatchesFunctional(t *testing.T) {
	const n = 64
	for _, arch := range config.AllArchs {
		m := config.LowEnd(arch)
		p := buildVectorSum(n, m.Threads())
		ref, err := parallel.RunFunctional(p, m.Threads(), 0)
		if err != nil {
			t.Fatalf("%s: functional: %v", arch.Name, err)
		}
		want := ref.ReadWord(p, "out", 0)

		p2 := buildVectorSum(n, m.Threads())
		sim, err := New(m, p2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		got := sim.Mem().Load(p2.SymbolAddr("out"))
		if got != want {
			t.Errorf("%s: out = %d, functional = %d", arch.Name, got, want)
		}
		if want != n*(n-1)/2 {
			t.Fatalf("reference itself wrong: %d", want)
		}
	}
}

// TestSlotConservationEndToEnd: total accounted slots must equal
// chip issue width (8) x clusters' share x cycles.
func TestSlotConservationEndToEnd(t *testing.T) {
	for _, arch := range []config.Arch{config.FA8, config.SMT2, config.SMT1} {
		m := config.LowEnd(arch)
		p := buildVectorSum(64, m.Threads())
		res := runOn(t, m, p)
		want := float64(8 * res.Cycles * int64(m.Chips))
		got := res.Slots.TotalSlots()
		if math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s: slots = %v, want %v", arch.Name, got, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	m := config.LowEnd(config.SMT2)
	r1 := runOn(t, m, buildVectorSum(64, m.Threads()))
	r2 := runOn(t, m, buildVectorSum(64, m.Threads()))
	if r1.Cycles != r2.Cycles || r1.Committed != r2.Committed {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d cycles/instrs",
			r1.Cycles, r1.Committed, r2.Cycles, r2.Committed)
	}
}

func TestMultiChipRunsAndMatchesFunctional(t *testing.T) {
	m := config.HighEnd(config.SMT2) // 32 threads
	p := buildVectorSum(128, m.Threads())
	sim, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.MaxCycles = 50_000_000
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Mem().Load(p.SymbolAddr("out")); got != 128*127/2 {
		t.Fatalf("out = %d", got)
	}
	if res.MemStats.ByClass[4]+res.MemStats.ByClass[5] == 0 {
		t.Error("4-chip run produced no remote accesses")
	}
	if res.NetMessages == 0 {
		t.Error("no network traffic on a 4-chip machine")
	}
}

// TestMoreThreadsFinishFasterOnParallelKernel: SMT2 with 8 threads must
// beat FA1 with 1 thread on an embarrassingly parallel kernel.
func TestParallelismHelps(t *testing.T) {
	pFA1 := buildVectorSum(512, 1)
	pSMT2 := buildVectorSum(512, 8)
	r1 := runOn(t, config.LowEnd(config.FA1), pFA1)
	r2 := runOn(t, config.LowEnd(config.SMT2), pSMT2)
	if r2.Cycles >= r1.Cycles {
		t.Errorf("SMT2/8t = %d cycles, FA1/1t = %d cycles: parallelism did not help",
			r2.Cycles, r1.Cycles)
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	b := prog.NewBuilder("loop")
	b.Li(1, 0)
	b.Li(2, 1000)
	b.CountedLoop(1, 2, func() { b.Nop() })
	b.Halt()
	res := runOn(t, config.LowEnd(config.FA1), b.MustBuild())
	if res.MispredictRate() > 0.05 {
		t.Errorf("mispredict rate = %.3f on a tight loop", res.MispredictRate())
	}
}

func TestSyncSlotsAppearWhenSerial(t *testing.T) {
	// Thread 0 does lots of work; other threads go straight to the
	// barrier: their slots must show up as sync.
	b := prog.NewBuilder("serial")
	b.IfThread0(func() {
		b.Li(1, 0)
		b.Li(2, 2000)
		b.CountedLoop(1, 2, func() {
			b.Mul(3, 1, 1)
		})
	})
	b.Barrier(0)
	b.Halt()
	m := config.LowEnd(config.FA8)
	res := runOn(t, m, b.MustBuild())
	if res.Slots.Counts[2] == 0 { // stats.Sync
		t.Error("no sync slots on a serial-section kernel")
	}
	if res.BarrierWaits != 1 {
		t.Errorf("barrier episodes = %d, want 1", res.BarrierWaits)
	}
}

func TestLockContentionSerializes(t *testing.T) {
	b := prog.NewBuilder("lock")
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
	p := b.MustBuild()
	m := config.LowEnd(config.FA8) // 8 threads
	sim, _ := New(m, p)
	sim.MaxCycles = 50_000_000
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Mem().Load(p.SymbolAddr("cnt")); got != 8*50 {
		t.Fatalf("cnt = %d, want 400", got)
	}
	if res.LockAcquires != 400 {
		t.Errorf("acquires = %d", res.LockAcquires)
	}
	if res.Slots.Counts[2] == 0 {
		t.Error("no sync slots under lock contention")
	}
}

func TestRunTwicePanicsGracefully(t *testing.T) {
	p := buildVectorSum(16, 1)
	sim, _ := New(config.LowEnd(config.FA1), p)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("second Run must fail")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	b := prog.NewBuilder("spin")
	b.Label("top")
	b.Jump("top")
	b.Halt()
	sim, _ := New(config.LowEnd(config.FA1), b.MustBuild())
	sim.MaxCycles = 1000
	if _, err := sim.Run(); err == nil {
		t.Fatal("livelock not caught")
	}
}

func TestResultStringNonEmpty(t *testing.T) {
	res := runOn(t, config.LowEnd(config.FA1), buildVectorSum(16, 1))
	if res.String() == "" {
		t.Fatal("empty result string")
	}
}

func TestICountFetchPolicy(t *testing.T) {
	// ICOUNT must produce a valid, deterministic run and keep the
	// functional result identical; on the centralized SMT it should not
	// be worse than round-robin by more than noise (it exists to help).
	m := config.LowEnd(config.SMT1)
	run := func(icount bool) *Result {
		p := buildVectorSum(256, m.Threads())
		sim, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetICountFetch(icount)
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := sim.Mem().Load(p.SymbolAddr("out")); got != 256*255/2 {
			t.Fatalf("icount=%v: wrong result %d", icount, got)
		}
		return res
	}
	rr := run(false)
	ic := run(true)
	if ic.Committed != rr.Committed {
		t.Fatalf("instruction counts differ: %d vs %d", ic.Committed, rr.Committed)
	}
	if float64(ic.Cycles) > 1.25*float64(rr.Cycles) {
		t.Errorf("ICOUNT much worse than round-robin: %d vs %d cycles", ic.Cycles, rr.Cycles)
	}
}

func TestPredictorSizeConfigurable(t *testing.T) {
	m := config.LowEnd(config.FA1)
	m.Arch.PredictorEntries = 16
	m.Arch.BTBEntries = 16
	p := buildVectorSum(64, 1)
	sim, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestClockFactor pins the §5.2 cycle-time model.
func TestClockFactor(t *testing.T) {
	if config.SMT1.ClockFactor() != 0.5 || config.FA1.ClockFactor() != 0.5 {
		t.Error("8-issue clusters must pay 2x cycle time")
	}
	for _, a := range []config.Arch{config.FA8, config.FA4, config.FA2, config.SMT4, config.SMT2} {
		if a.ClockFactor() != 1.0 {
			t.Errorf("%s: clock factor %v, want 1.0", a.Name, a.ClockFactor())
		}
	}
}

// TestCommitIsPerThreadInOrder: within each thread, instructions commit
// in program order (checked via a per-thread sequence trace kernel that
// stores an incrementing counter; the final memory must hold the last
// value, and total commits must equal functional steps).
func TestCommitMatchesFunctionalInstructionCount(t *testing.T) {
	for _, arch := range []config.Arch{config.FA8, config.SMT2, config.SMT1} {
		m := config.LowEnd(arch)
		p := buildVectorSum(64, m.Threads())
		ref, err := parallel.RunFunctional(buildVectorSum(64, m.Threads()), m.Threads(), 0)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != ref.Steps {
			t.Errorf("%s: committed %d != functional %d", arch.Name, res.Committed, ref.Steps)
		}
	}
}

// TestStoreForwarding: a load immediately after a same-address store
// must forward from the window rather than going to memory.
func TestStoreForwarding(t *testing.T) {
	b := prog.NewBuilder("fwd")
	a := b.Global("a", 1)
	b.Li(1, 0)
	b.Li(2, 200)
	b.CountedLoop(1, 2, func() {
		b.St(1, 0, a)
		b.Ld(3, 0, a) // should forward
	})
	b.Halt()
	m := config.LowEnd(config.FA1)
	sim, err := New(m, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ForwardedLoads < 100 {
		t.Errorf("forwarded loads = %d, want most of 200", res.ForwardedLoads)
	}
}

// TestUnpipelinedDivOccupancy: back-to-back divides on a 1-FP-unit
// cluster must serialize at the divide latency.
func TestUnpipelinedDivOccupancy(t *testing.T) {
	build := func(op func(b *prog.Builder)) *prog.Program {
		b := prog.NewBuilder("div")
		b.Fli(1, 3.0)
		b.Fli(2, 1.5)
		b.Li(1, 0)
		b.Li(2, 100)
		b.CountedLoop(1, 2, func() { op(b) })
		b.Halt()
		return b.MustBuild()
	}
	m := config.LowEnd(config.FA8) // 1 FP unit per cluster
	run := func(p *prog.Program) int64 {
		sim, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	// Independent divides (different destinations) still occupy the
	// single unpipelined FP unit: ~7 cycles each.
	divCycles := run(build(func(b *prog.Builder) {
		b.Fdiv(3, 1, 2)
		b.Fdiv(4, 1, 2)
	}))
	mulCycles := run(build(func(b *prog.Builder) {
		b.Fmul(3, 1, 2)
		b.Fmul(4, 1, 2)
	}))
	if float64(divCycles) < 2.5*float64(mulCycles) {
		t.Errorf("unpipelined divides not serializing: div=%d mul=%d cycles", divCycles, mulCycles)
	}
}

// TestRenamePoolConservation: after a run, every cluster's rename pools
// must be back at their configured capacity (no leaks).
func TestRenamePoolConservation(t *testing.T) {
	for _, arch := range []config.Arch{config.FA8, config.SMT2, config.SMT1} {
		m := config.LowEnd(arch)
		sim, err := New(m, buildVectorSum(128, m.Threads()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		for _, cl := range sim.clusters {
			if cl.renameIntFree != arch.RenameInt || cl.renameFPFree != arch.RenameFP {
				t.Errorf("%s: rename pool leak: int %d/%d fp %d/%d",
					arch.Name, cl.renameIntFree, arch.RenameInt, cl.renameFPFree, arch.RenameFP)
			}
			if len(cl.window) != 0 || cl.iqCount != 0 {
				t.Errorf("%s: window not drained: %d entries, iq %d", arch.Name, len(cl.window), cl.iqCount)
			}
		}
	}
}

func TestTraceOutput(t *testing.T) {
	b := prog.NewBuilder("tr")
	b.Li(1, 1)
	b.Add(2, 1, 1)
	b.Halt()
	sim, err := New(config.LowEnd(config.FA1), b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	sim.TraceTo(&buf, 0, 0)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{" F ", " I ", " C ", "addi r1, r0, 1", "halt"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// Every fetched instruction must also issue and commit: equal
	// event counts.
	f := strings.Count(out, " F ")
	i := strings.Count(out, " I ")
	c := strings.Count(out, " C ")
	if f != i || i != c || f != 3 {
		t.Errorf("event counts F=%d I=%d C=%d, want 3 each", f, i, c)
	}
}

func TestTraceWindowBounds(t *testing.T) {
	b := prog.NewBuilder("tr")
	b.Li(1, 0)
	b.Li(2, 50)
	b.CountedLoop(1, 2, func() { b.Nop() })
	b.Halt()
	sim, err := New(config.LowEnd(config.FA1), b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	sim.TraceTo(&buf, 5, 8)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var cyc int64
		if _, err := fmt.Sscanf(line, "c%d", &cyc); err != nil {
			t.Fatalf("unparseable trace line %q", line)
		}
		if cyc < 5 || cyc >= 8 {
			t.Errorf("event outside trace window: %q", line)
		}
	}
}

// TestStructuralVotes: a burst of independent FP work on a cluster with
// one FP unit must produce structural-hazard slots.
func TestStructuralVotes(t *testing.T) {
	b := prog.NewBuilder("fpburst")
	b.Fli(0, 1.5)
	b.Li(1, 0)
	b.Li(2, 400)
	b.CountedLoop(1, 2, func() {
		for d := 1; d <= 6; d++ {
			b.Fmul(isa.Reg(d), 0, 0)
		}
	})
	b.Halt()
	// FA1: 8 issue slots but only 4 FP units — with 6 ready multiplies
	// per iteration the FP units bind before issue width, which is the
	// structural-hazard class. (Narrower clusters never show it: their
	// issue width binds first.)
	res := runOn(t, config.LowEnd(config.FA1), b.MustBuild())
	if res.Slots.Counts[6] == 0 { // stats.Structural
		t.Error("no structural votes on an FP-unit-bound kernel")
	}
}

// TestControlVotesOnUnpredictableBranches: data-dependent branches
// produce mispredicts, which must surface as control slots and a
// mispredict rate well above the loop-branch baseline.
func TestControlVotesOnUnpredictableBranches(t *testing.T) {
	b := prog.NewBuilder("branchy")
	b.Li(1, 0)
	b.Li(2, 2000)
	b.Li(5, 0x9E3779B9)
	b.CountedLoop(1, 2, func() {
		// Cheap LCG; branch on a pseudo-random bit.
		b.Li(6, 1103515245)
		b.Mul(5, 5, 6)
		b.Addi(5, 5, 12345)
		b.Shri(7, 5, 16)
		b.Andi(7, 7, 1)
		b.Beq(7, 0, ".taken")
		b.Nop()
		b.Label(".taken")
		b.Nop()
	})
	b.Halt()
	res := runOn(t, config.LowEnd(config.FA1), b.MustBuild())
	if res.MispredictRate() < 0.10 {
		t.Errorf("mispredict rate %.3f too low for random branches", res.MispredictRate())
	}
	if res.Slots.Counts[3] == 0 { // stats.Control
		t.Error("no control slots despite mispredicts")
	}
}

// TestMemoryVotesOnMissChain: dependent loads that miss the L1 must
// surface as memory-hazard slots.
func TestMemoryVotesOnMissChain(t *testing.T) {
	b := prog.NewBuilder("chase")
	// Pointer chase across 4096 words (32KB... strided to defeat the
	// line): next = mem[next].
	n := int64(8192)
	data := b.Global("chain", n)
	b.Li(1, 0)
	b.Li(2, 2000)
	b.Li(3, data)
	b.CountedLoop(1, 2, func() {
		b.Ld(3, 3, 0)
	})
	b.Halt()
	p := b.MustBuild()
	// Build a strided cyclic permutation: element i points to
	// (i + 97 words) mod n, each hop a new line.
	for i := int64(0); i < n; i++ {
		next := (i + 97) % n
		p.Init.Set(data+i*prog.WordSize, uint64(data+next*prog.WordSize))
	}
	res := runOn(t, config.LowEnd(config.FA1), p)
	if res.Slots.Fraction(5) < 0.3 { // stats.Memory
		t.Errorf("memory fraction %.3f too low for a pointer chase", res.Slots.Fraction(5))
	}
}

// TestPerClusterStats: the per-cluster breakdowns must sum to the
// machine-wide slot accounting.
func TestPerClusterStats(t *testing.T) {
	m := config.LowEnd(config.SMT2)
	res := runOn(t, m, buildVectorSum(64, m.Threads()))
	if len(res.PerCluster) != 2 {
		t.Fatalf("clusters = %d, want 2", len(res.PerCluster))
	}
	var sum float64
	for _, cs := range res.PerCluster {
		sum += cs.Slots.TotalSlots()
		if cs.Threads != 4 {
			t.Errorf("cluster %d.%d threads = %d", cs.Chip, cs.Cluster, cs.Threads)
		}
		if cs.Slots.Cycles != res.Cycles {
			t.Errorf("cluster cycles %d != machine %d", cs.Slots.Cycles, res.Cycles)
		}
	}
	if math.Abs(sum-res.Slots.TotalSlots()) > 1e-6*sum {
		t.Errorf("per-cluster slots %v != machine %v", sum, res.Slots.TotalSlots())
	}
}

// TestClusterIsolation: §3.3 — no resource sharing across clusters. A
// thread saturating its cluster's FP units must not slow a thread in
// the other cluster (FA2), while on the centralized SMT1 the same pair
// contends for the shared FP pool.
func TestClusterIsolation(t *testing.T) {
	// Thread 0: FP-saturating loop; thread 1: identical loop. Measure
	// the co-run against a solo run of one thread.
	build := func(both bool) *prog.Program {
		b := prog.NewBuilder("iso")
		b.GlobalWords("nthreads", []uint64{2})
		b.Fli(0, 1.1)
		if !both {
			// Thread 1 exits immediately.
			b.Bne(isa.RegTID, isa.RegZero, ".skip")
		}
		b.Li(1, 0)
		b.Li(2, 800)
		b.CountedLoop(1, 2, func() {
			for d := 1; d <= 6; d++ {
				b.Fmul(isa.Reg(d), 0, 0)
			}
		})
		if !both {
			b.Label(".skip")
		}
		b.Halt()
		return b.MustBuild()
	}
	cycles := func(arch config.Arch, both bool) int64 {
		res := runOn(t, config.LowEnd(arch), build(both))
		return res.Cycles
	}
	// FA2: co-run must cost essentially nothing (separate clusters).
	fa2Solo := cycles(config.FA2, false)
	fa2Both := cycles(config.FA2, true)
	if float64(fa2Both) > 1.10*float64(fa2Solo) {
		t.Errorf("FA2 co-run %d vs solo %d: clusters are leaking resources", fa2Both, fa2Solo)
	}
	// SMT1: both threads share 4 FP units; the co-run must be clearly
	// slower than its solo run.
	smt1Solo := cycles(config.SMT1, false)
	smt1Both := cycles(config.SMT1, true)
	if float64(smt1Both) < 1.25*float64(smt1Solo) {
		t.Errorf("SMT1 co-run %d vs solo %d: expected FP contention", smt1Both, smt1Solo)
	}
}
