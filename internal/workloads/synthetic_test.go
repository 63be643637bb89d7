package workloads

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/parallel"
	"clustersmt/internal/prog"
)

func runSynth(t *testing.T, spec SyntheticSpec, arch config.Arch) *core.Result {
	t.Helper()
	w := Synthetic(spec)
	m := config.LowEnd(arch)
	p := w.Build(m.Threads(), m.Chips, SizeTest)
	sim, err := core.New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	sim.MaxCycles = 200_000_000
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSyntheticRunsFunctionally(t *testing.T) {
	specs := []SyntheticSpec{
		{},
		{ParCap: 2, ChainLen: 4},
		{IndepOps: 8, MemOps: 3, SerialIters: 200},
		{FootprintKB: 128, MemOps: 4},
	}
	for _, spec := range specs {
		w := Synthetic(spec)
		for _, threads := range []int{1, 8} {
			p := w.Build(threads, 1, SizeTest)
			if _, err := parallel.RunFunctional(p, threads, 50_000_000); err != nil {
				t.Fatalf("%s threads=%d: %v", w.Name, threads, err)
			}
		}
	}
}

// TestSyntheticChainLowersILP: a long carried chain must lower measured
// IPC on a wide core compared to an independent-ops body.
func TestSyntheticChainLowersILP(t *testing.T) {
	indep := runSynth(t, SyntheticSpec{IndepOps: 8, Iters: 1024}, config.FA1)
	chain := runSynth(t, SyntheticSpec{ChainLen: 8, Iters: 1024}, config.FA1)
	if chain.IPC >= indep.IPC {
		t.Errorf("chain IPC %.2f >= independent IPC %.2f", chain.IPC, indep.IPC)
	}
}

// TestSyntheticParCapLimitsThreads: a ParCap of 2 must keep average
// running threads near 2 on the 8-context FA8 (the rest park at the
// barrier).
func TestSyntheticParCapLimitsThreads(t *testing.T) {
	res := runSynth(t, SyntheticSpec{ParCap: 2, Iters: 2048, ChainLen: 2}, config.FA8)
	if res.AvgRunningThreads > 3.5 {
		t.Errorf("avg running threads = %.2f, want ~2", res.AvgRunningThreads)
	}
}

// TestSyntheticPlaneResponse: the architectures must respond to the
// synthetic plane the way the §2 model predicts — a thready low-ILP
// point favors FA8 over FA1; a narrow high-ILP point favors FA1 over
// FA8.
func TestSyntheticPlaneResponse(t *testing.T) {
	thready := SyntheticSpec{ChainLen: 8, Iters: 2048} // all threads, ILP ~1-2
	fa8 := runSynth(t, thready, config.FA8)
	fa1 := runSynth(t, thready, config.FA1)
	if fa8.Cycles >= fa1.Cycles {
		t.Errorf("thready point: FA8 %d cycles >= FA1 %d", fa8.Cycles, fa1.Cycles)
	}

	narrow := SyntheticSpec{ParCap: 1, IndepOps: 10, Iters: 2048}
	fa8n := runSynth(t, narrow, config.FA8)
	fa1n := runSynth(t, narrow, config.FA1)
	if fa1n.Cycles >= fa8n.Cycles {
		t.Errorf("narrow point: FA1 %d cycles >= FA8 %d", fa1n.Cycles, fa8n.Cycles)
	}
}

// TestSyntheticSerialAmdahl: adding serial iterations must slow the
// many-thread machine disproportionately.
func TestSyntheticSerialAmdahl(t *testing.T) {
	base := runSynth(t, SyntheticSpec{ChainLen: 2, Iters: 2048}, config.FA8)
	serial := runSynth(t, SyntheticSpec{ChainLen: 2, Iters: 2048, SerialIters: 3000}, config.FA8)
	if serial.Cycles <= base.Cycles {
		t.Errorf("serial section did not cost cycles: %d vs %d", serial.Cycles, base.Cycles)
	}
	if serial.Slots.Counts[2] <= base.Slots.Counts[2] { // sync slots
		t.Error("serial section did not raise sync slots")
	}
}

// TestSyntheticFootprintRaisesMemory: spilling the working set past the
// L1 must raise the memory-hazard share.
func TestSyntheticFootprintRaisesMemory(t *testing.T) {
	small := runSynth(t, SyntheticSpec{MemOps: 4, FootprintKB: 16, Iters: 2048}, config.SMT2)
	big := runSynth(t, SyntheticSpec{MemOps: 4, FootprintKB: 512, Iters: 2048}, config.SMT2)
	if big.Slots.Fraction(5) <= small.Slots.Fraction(5) { // stats.Memory
		t.Errorf("memory fraction did not rise: %.3f vs %.3f",
			big.Slots.Fraction(5), small.Slots.Fraction(5))
	}
}

// TestParseSynthetic pins the name grammar: every canonical name (with
// and without the warm-up suffix) round-trips through ParseSynthetic
// and ByName, and anything non-canonical — wrong key, extra field,
// defaulted-field mismatch — or out of range is rejected, keeping one
// name per spec and the daemon's program builds bounded.
func TestParseSynthetic(t *testing.T) {
	for _, spec := range []SyntheticSpec{
		{},
		{ParCap: 2, ChainLen: 4, IndepOps: 1, MemOps: 3, FootprintKB: 64, Iters: 1024, SerialIters: 32, Steps: 3},
		{ChainLen: 2, IndepOps: 2, Iters: 256, WarmupIters: 1500},
		{ChainLen: maxSynthBodyOps, IndepOps: maxSynthBodyOps, MemOps: maxSynthBodyOps},
	} {
		name := Synthetic(spec).Name
		w, err := ParseSynthetic(name)
		if err != nil {
			t.Errorf("ParseSynthetic(%q): %v", name, err)
			continue
		}
		if w.Name != name {
			t.Errorf("ParseSynthetic(%q) returned %q", name, w.Name)
		}
		if bn, err := ByName(name); err != nil || bn.Name != name {
			t.Errorf("ByName(%q) = %q, %v", name, bn.Name, err)
		}
	}

	for _, bad := range badSynthNames {
		if _, err := ParseSynthetic(bad); err == nil {
			t.Errorf("ParseSynthetic(%q) accepted a non-canonical or out-of-range name", bad)
		}
	}
}

// badSynthNames are names ParseSynthetic must refuse.
var badSynthNames = []string{
	"",
	"swim",
	"synth()",
	"synth(p0,c0,i0)",
	"synth(p0,c0,i0,m1,f16,n4096,s0,t2,w0)", // w0 is elided in canonical names
	"synth(p0,c0,i0,m0,f16,n4096,s0,t2)",    // MemOps defaults to 1, so m0 never renders
	"synth(p0,c0,i0,m1,f16,n4096,s0,t2,x5)", // wrong key
	"synth(p0,c0,i0,m1,f16,n4096,s0,t2,w1,w2)", // too many fields
	"synth(p0,c0,i0,m1,f16,nABC,s0,t2)",
	"synth(p0,c0,i0,m1,f1073741824,n4096,s0,t2)",  // a 1 TiB data image
	"synth(p0,c0,i0,m1,f16385,n4096,s0,t2)",       // one KB over the bound
	"synth(p9,c0,i0,m1,f16,n4096,s0,t2)",          // ParCap counts contexts per 8
	"synth(p0,c1000000000,i0,m1,f16,n4096,s0,t2)", // a multi-GB code slice
	"synth(p0,c65,i0,m1,f16,n4096,s0,t2)",         // one op over the body bound
	"synth(p0,c0,i65,m1,f16,n4096,s0,t2)",
	"synth(p0,c0,i0,m65,f16,n4096,s0,t2)",
	"synth(p0,c0,i0,m1000000000,f16,n4096,s0,t2)",
	"synth(p-1,c0,i0,m1,f16,n4096,s0,t2)",
	"synth(p0,c-1,i0,m1,f16,n4096,s0,t2)",
	"synth(p0,c0,i-3,m1,f16,n4096,s0,t2)",
	"synth(p0,c0,i0,m1,f16,n4096,s-5,t2)",
	"synth(p0,c0,i0,m1,f16,n4096,s0,t2,w-1)",
}

// FuzzParseSynthetic holds ParseSynthetic, the path from a job spec to
// a program build, to its contract on any input: it never panics, and a
// name it accepts is the Name of the workload it returns, whose spec is
// in range. Seeds: the names the measurement spine's sweep and serving
// workloads generate, the body knobs at their bound and the reject
// table.
func FuzzParseSynthetic(f *testing.F) {
	for _, kb := range []int{16, 64, 512, 2048} {
		f.Add(Synthetic(SyntheticSpec{ChainLen: 4, IndepOps: 2, MemOps: 2, FootprintKB: kb, Iters: 192, WarmupIters: 12000}).Name)
		f.Add(Synthetic(SyntheticSpec{ParCap: 4, ChainLen: 8, IndepOps: 6, MemOps: 3, FootprintKB: kb, Iters: 256, SerialIters: 32, Steps: 2}).Name)
	}
	f.Add(Synthetic(SyntheticSpec{}).Name)
	// The body knobs at their bound, which must be accepted.
	f.Add(Synthetic(SyntheticSpec{ChainLen: maxSynthBodyOps, IndepOps: maxSynthBodyOps, MemOps: maxSynthBodyOps}).Name)
	for _, bad := range badSynthNames {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, name string) {
		w, err := ParseSynthetic(name)
		if err != nil {
			return
		}
		if w.Name != name {
			t.Fatalf("ParseSynthetic(%q) returned workload %q", name, w.Name)
		}
		// The spec's fields are the name's numbers, in order.
		var v []int64
		for _, f := range strings.FieldsFunc(name, func(r rune) bool { return r != '-' && !unicode.IsDigit(r) }) {
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				t.Fatalf("accepted %q has a malformed field %q", name, f)
			}
			v = append(v, n)
		}
		if len(v) < 8 || slices.Min(v) < 0 || v[0] > 8 || slices.Max(v[1:4]) > maxSynthBodyOps || v[4] > maxSynthFootprintKB {
			t.Fatalf("accepted %q with an out-of-range spec %v", name, v)
		}
	})
}

var buildSink *prog.Program

// BenchmarkBuildSynthetic is the cost of assembling one sweep point and
// its data image, at a footprint inside the modelled L1 and at one that
// spills the L2.
func BenchmarkBuildSynthetic(b *testing.B) {
	for _, kb := range []int{16, 2048} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			w := Synthetic(SyntheticSpec{FootprintKB: kb, ChainLen: 4, IndepOps: 2, MemOps: 2, WarmupIters: 12000})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildSink = w.Build(2, 1, SizeTest)
			}
		})
	}
}
