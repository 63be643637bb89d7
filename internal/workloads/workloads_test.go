package workloads

import (
	"strings"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/parallel"
	"clustersmt/internal/prog"
)

func TestAllHasSixApps(t *testing.T) {
	ws := All()
	if len(ws) != 6 {
		t.Fatalf("apps = %d, want 6", len(ws))
	}
	want := []string{"swim", "tomcatv", "mgrid", "vpenta", "fmm", "ocean"}
	for i, w := range ws {
		if w.Name != want[i] {
			t.Errorf("app %d = %s, want %s", i, w.Name, want[i])
		}
		if w.Description == "" || w.Build == nil {
			t.Errorf("%s: incomplete workload", w.Name)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("ocean")
	if err != nil || w.Name != "ocean" {
		t.Fatalf("ByName: %v %v", w.Name, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestFunctionalCompletion: every kernel must run to completion
// functionally at every paper-relevant thread count, with no deadlock
// and no leaked locks.
func TestFunctionalCompletion(t *testing.T) {
	for _, w := range All() {
		for _, threads := range []int{1, 2, 4, 8} {
			p := w.Build(threads, 1, SizeTest)
			res, err := parallel.RunFunctional(p, threads, 50_000_000)
			if err != nil {
				t.Fatalf("%s/%d threads: %v", w.Name, threads, err)
			}
			if res.Steps == 0 {
				t.Fatalf("%s/%d threads: no instructions executed", w.Name, threads)
			}
		}
	}
}

// TestWorkDistribution: with 8 threads, at least min(8, MaxParallel)
// threads must execute a nontrivial share of instructions.
func TestWorkDistribution(t *testing.T) {
	for _, w := range All() {
		p := w.Build(8, 1, SizeTest)
		res, err := parallel.RunFunctional(p, 8, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		wantWorkers := w.WorkersAt(8)
		busy := 0
		for _, th := range res.Threads {
			if th.Retired > res.Steps/uint64(8*4) {
				busy++
			}
		}
		if busy < wantWorkers {
			t.Errorf("%s: only %d busy threads, want >= %d", w.Name, busy, wantWorkers)
		}
	}
}

// TestThreadCountInvariance: the computed results (the diagnostic
// globals each kernel writes) must not depend on how many threads ran
// the kernel, for the deterministic (lock-free-output) kernels.
func TestThreadCountInvariance(t *testing.T) {
	outputs := map[string]string{
		"swim":    "checksum",
		"tomcatv": "resid",
		"mgrid":   "resid",
		"vpenta":  "sum",
		"ocean":   "resid",
	}
	for _, w := range All() {
		sym, ok := outputs[w.Name]
		if !ok {
			continue // fmm's lock order legitimately varies rounding
		}
		if w.Name == "ocean" {
			// Gauss-Seidel sweeps read neighbors updated in the same
			// pass; with different chunkings the update order inside a
			// color differs only across chunk boundaries — red/black
			// ordering makes the result chunking-independent.
			_ = sym
		}
		p1 := w.Build(1, 1, SizeTest)
		r1, err := parallel.RunFunctional(p1, 1, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		p8 := w.Build(8, 1, SizeTest)
		r8, err := parallel.RunFunctional(p8, 8, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		v1 := r1.ReadWord(p1, sym, 0)
		v8 := r8.ReadWord(p8, sym, 0)
		if v1 != v8 {
			t.Errorf("%s: %s differs across thread counts: %x vs %x", w.Name, sym, v1, v8)
		}
	}
}

// TestFmmLocksUsed: fmm must actually contend on cell locks.
func TestFmmLocksUsed(t *testing.T) {
	p := Fmm().Build(8, 1, SizeTest)
	res, err := parallel.RunFunctional(p, 8, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sync.LockAcquires == 0 {
		t.Fatal("fmm acquired no locks")
	}
}

// TestTimingSmoke: each kernel must complete on the timing simulator
// (SMT2 low-end) and agree with the functional reference memory state
// for its diagnostic output.
func TestTimingSmoke(t *testing.T) {
	m := config.LowEnd(config.SMT2)
	for _, w := range All() {
		p := w.Build(m.Threads(), m.Chips, SizeTest)
		sim, err := core.New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		sim.MaxCycles = 100_000_000
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Committed == 0 {
			t.Fatalf("%s: nothing committed", w.Name)
		}

		pRef := w.Build(m.Threads(), m.Chips, SizeTest)
		ref, err := parallel.RunFunctional(pRef, m.Threads(), 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(0) != ref.Steps-res.Committed && ref.Steps != res.Committed {
			t.Errorf("%s: committed %d != functional steps %d", w.Name, res.Committed, ref.Steps)
		}
	}
}

func TestSizesDiffer(t *testing.T) {
	for _, w := range All() {
		small := w.Build(4, 1, SizeTest)
		big := w.Build(4, 1, SizeRef)
		if big.DataEnd <= small.DataEnd {
			t.Errorf("%s: ref size not larger than test size", w.Name)
		}
	}
	if SizeTest.String() == SizeRef.String() {
		t.Error("size strings collide")
	}
}

// TestTimingMatchesFunctionalMemory: for every kernel and a
// representative architecture set, the timing simulator must leave the
// entire data segment bit-identical to the pure-functional reference —
// both drive the same functional engine, so any divergence is a
// simulator bug. fmm's cellacc is excluded (its lock-ordered float
// reduction is timing-dependent by construction).
func TestTimingMatchesFunctionalMemory(t *testing.T) {
	skip := map[string]map[string]bool{
		"fmm": {"cellacc": true},
	}
	archs := []config.Arch{config.FA8, config.FA2, config.SMT2, config.SMT1}
	for _, w := range All() {
		for _, arch := range archs {
			m := config.LowEnd(arch)
			pRef := w.Build(m.Threads(), m.Chips, SizeTest)
			ref, err := parallel.RunFunctional(pRef, m.Threads(), 100_000_000)
			if err != nil {
				t.Fatalf("%s/%s functional: %v", w.Name, arch.Name, err)
			}
			pSim := w.Build(m.Threads(), m.Chips, SizeTest)
			sim, err := core.New(m, pSim)
			if err != nil {
				t.Fatal(err)
			}
			sim.MaxCycles = 100_000_000
			if _, err := sim.Run(); err != nil {
				t.Fatalf("%s/%s: %v", w.Name, arch.Name, err)
			}
			for _, s := range pSim.Symbols {
				if skip[w.Name][s.Name] {
					continue
				}
				for off := int64(0); off < s.Size; off += 8 {
					got := sim.Mem().Load(s.Addr + off)
					want := ref.Mem.Load(s.Addr + off)
					if got != want {
						t.Fatalf("%s/%s: %s+%d: timing %x != functional %x",
							w.Name, arch.Name, s.Name, off, got, want)
					}
				}
			}
		}
	}
}

func TestMeasureMix(t *testing.T) {
	p := Vpenta().Build(4, 1, SizeTest)
	m, err := MeasureMix(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Mix must cover everything and match the functional step count.
	sum := m.IntOps + m.FPOps + m.Loads + m.Stores + m.Branches + m.Syncs + m.Other
	if sum != m.Total {
		t.Fatalf("mix categories sum %d != total %d", sum, m.Total)
	}
	ref, err := parallel.RunFunctional(Vpenta().Build(4, 1, SizeTest), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != ref.Steps {
		t.Fatalf("mix total %d != functional steps %d", m.Total, ref.Steps)
	}
	if m.FPOps == 0 || m.Loads == 0 || m.Branches == 0 {
		t.Fatalf("implausible vpenta mix: %+v", m)
	}
}

// TestMeasureMixHeldLock: the mix profiler runs on RunFunctional and
// so inherits its checks — a kernel that halts holding a lock is an
// error, not a mix.
func TestMeasureMixHeldLock(t *testing.T) {
	b := prog.NewBuilder("holdlock")
	b.Lock(1)
	b.Halt()
	if m, err := MeasureMix(b.MustBuild(), 1); err == nil {
		t.Fatalf("held lock not reported; got mix %+v", m)
	}
}

func TestMixTable(t *testing.T) {
	out, err := MixTable(append(All(), Extras()...), 4, SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(All(), Extras()...) {
		if !strings.Contains(out, w.Name) {
			t.Errorf("mix table missing %s", w.Name)
		}
	}
	// Radix is the integer workload: its fp share must be ~0.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "radix") && !strings.Contains(line, "  0.0%") {
			t.Errorf("radix line has FP content: %q", line)
		}
	}
}

func TestWorkersAtScaling(t *testing.T) {
	cases := []struct {
		cap     int
		threads int
		want    int
	}{
		{0, 8, 8}, // unbounded
		{0, 32, 32},
		{4, 8, 4},   // swim low-end
		{4, 32, 16}, // swim high-end: cap x 4 groups
		{2, 8, 2},   // tomcatv low-end
		{2, 32, 8},  // tomcatv high-end
		{6, 8, 6},   // fmm
		{6, 32, 24},
		{4, 2, 2}, // small machines clamp to the thread count
		{2, 1, 1},
		{4, 16, 8}, // FA4 high-end: 2 groups
	}
	for _, c := range cases {
		w := Workload{ParCap: c.cap}
		if got := w.WorkersAt(c.threads); got != c.want {
			t.Errorf("cap=%d threads=%d: workers = %d, want %d", c.cap, c.threads, got, c.want)
		}
	}
}

// TestChunkMatchesWorkersAt: the emitted chunk code's effective width
// must agree with WorkersAt for the paper-relevant machine shapes.
func TestChunkMatchesWorkersAt(t *testing.T) {
	for _, w := range All() {
		for _, threads := range []int{1, 2, 4, 8} {
			p := w.Build(threads, 1, SizeTest)
			res, err := parallel.RunFunctional(p, threads, 100_000_000)
			if err != nil {
				t.Fatal(err)
			}
			want := w.WorkersAt(threads)
			busy := 0
			for _, th := range res.Threads {
				if th.Retired > res.Steps/uint64(threads*4+1) {
					busy++
				}
			}
			if busy < want {
				t.Errorf("%s threads=%d: busy=%d < workers=%d", w.Name, threads, busy, want)
			}
		}
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Size
		ok   bool
	}{
		{"test", SizeTest, true}, {"TEST", SizeTest, true}, {"Test", SizeTest, true},
		{"ref", SizeRef, true}, {"REF", SizeRef, true}, {"rEf", SizeRef, true},
		{"", 0, false}, {"tset", 0, false}, {"reference", 0, false}, {" test", 0, false},
	} {
		got, err := ParseSize(tc.name)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "test or ref")) {
			t.Errorf("ParseSize(%q) = %v, %v; want an error naming both sizes", tc.name, got, err)
		}
	}
}
