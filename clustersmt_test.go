package clustersmt_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"clustersmt"
)

func TestFacadeArchitectures(t *testing.T) {
	if len(clustersmt.Architectures()) != 7 {
		t.Fatalf("architectures = %d", len(clustersmt.Architectures()))
	}
	a, err := clustersmt.ArchByName("SMT2")
	if err != nil || a.Clusters != 2 {
		t.Fatalf("SMT2 lookup: %+v, %v", a, err)
	}
	if clustersmt.LowEnd(a).Threads() != 8 || clustersmt.HighEnd(a).Threads() != 32 {
		t.Fatal("machine thread counts wrong")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	ws := clustersmt.Workloads()
	if len(ws) != 6 {
		t.Fatalf("workloads = %d", len(ws))
	}
	if _, err := clustersmt.WorkloadByName("swim"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSimulateByNameAndValue(t *testing.T) {
	m := clustersmt.LowEnd(clustersmt.FA8)
	r1, err := clustersmt.Simulate(m, "vpenta", clustersmt.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := clustersmt.WorkloadByName("vpenta")
	r2, err := clustersmt.Simulate(m, w, clustersmt.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Fatalf("name vs value runs differ: %d vs %d", r1.Cycles, r2.Cycles)
	}
	if _, err := clustersmt.Simulate(m, "nope", clustersmt.SizeTest); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestFacadeCustomProgram(t *testing.T) {
	b := clustersmt.NewProgram("t")
	b.GlobalWords("nthreads", []uint64{1})
	out := b.Global("out", 1)
	b.Li(1, 6)
	b.Li(2, 7)
	b.Mul(3, 1, 2)
	b.St(3, 0, out)
	b.Halt()
	p := b.MustBuild()

	ref, err := clustersmt.RunFunctional(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.ReadWord(p, "out", 0); got != 42 {
		t.Fatalf("functional out = %d", got)
	}

	res, err := clustersmt.SimulateProgram(clustersmt.LowEnd(clustersmt.FA1), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 5 {
		t.Fatalf("committed = %d, want 5", res.Committed)
	}
}

func TestFacadeModel(t *testing.T) {
	p := clustersmt.ModelOf(clustersmt.SMT2)
	app := clustersmt.ModelPoint{Threads: 8, ILP: 1}
	if d := p.Delivered(app); math.Abs(d-8) > 1e-9 {
		t.Fatalf("delivered = %v", d)
	}
	if s := clustersmt.ModelChart(p, map[string]clustersmt.ModelPoint{"X": app}); s == "" {
		t.Fatal("empty chart")
	}
}

func TestFacadeSlotBreakdownSums(t *testing.T) {
	res, err := clustersmt.Simulate(clustersmt.LowEnd(clustersmt.SMT4), "fmm", clustersmt.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for c := clustersmt.SlotUseful; c <= clustersmt.SlotOther; c++ {
		sum += res.Slots.Fraction(c)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("slot fractions sum to %v", sum)
	}
}

func TestFacadeSuite(t *testing.T) {
	s := clustersmt.NewSuite(clustersmt.SizeTest)
	fig, err := s.Figure(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 24 {
		t.Fatalf("figure 7 rows = %d", len(fig.Rows))
	}
}

// TestFacadeRefusesOracle: "oracle" is the allocation figure's column
// for a searched start assignment, not a runtime policy, so all three
// Simulate calls refuse it — through core.New's unknown-policy error,
// which lists the known policies — rather than silently run the
// static placement.
func TestFacadeRefusesOracle(t *testing.T) {
	m := clustersmt.LowEnd(clustersmt.SMT2)
	m.Alloc.Policy = "oracle"
	w, err := clustersmt.WorkloadByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	job := w.Build(1, 1, clustersmt.SizeTest)
	const want = `clustersmt: alloc: unknown policy "oracle" (known: icount, static, symbiosis)`
	for name, run := range map[string]func() (*clustersmt.Result, error){
		"Simulate": func() (*clustersmt.Result, error) { return clustersmt.Simulate(m, w, clustersmt.SizeTest) },
		"SimulateProgram": func() (*clustersmt.Result, error) {
			return clustersmt.SimulateProgram(m, w.Build(m.Threads(), m.Chips, clustersmt.SizeTest))
		},
		"SimulateMultiprogram": func() (*clustersmt.Result, error) {
			return clustersmt.SimulateMultiprogram(m, []*clustersmt.Program{job, job})
		},
	} {
		if r, err := run(); r != nil || err == nil || err.Error() != want {
			t.Errorf("%s under the oracle policy: %v, %v; want the error %q", name, r, err, want)
		}
	}
}

// TestFacadeRefusesUnbuildableMachines: a machine Validate refuses is an
// error from every Simulate call, never a panic in a constructor below.
func TestFacadeRefusesUnbuildableMachines(t *testing.T) {
	for name, set := range map[string]func(*clustersmt.Machine){
		"L1 96 KB (768 sets)":    func(m *clustersmt.Machine) { m.Mem.L1SizeKB = 96 },
		"L2 1536 KB (6144 sets)": func(m *clustersmt.Machine) { m.Mem.L2SizeKB = 1536 },
		"Occupancy 0":            func(m *clustersmt.Machine) { m.Mem.Occupancy = 0 },
		"NetOccupancy 0":         func(m *clustersmt.Machine) { m.Mem.NetOccupancy = 0 },
		"33 chips":               func(m *clustersmt.Machine) { m.Chips = 33 },
		"PredictorEntries 1000":  func(m *clustersmt.Machine) { m.Arch.PredictorEntries = 1000 },
		"BTBEntries 1000":        func(m *clustersmt.Machine) { m.Arch.BTBEntries = 1000 },
	} {
		m := clustersmt.LowEnd(clustersmt.SMT2)
		set(&m)
		if r, err := clustersmt.Simulate(m, "swim", clustersmt.SizeTest); r != nil || err == nil {
			t.Errorf("Simulate on %s: %v, %v; want an error", name, r, err)
		}
	}
}

// TestFacadeRefusesBadSyncIDs: a lock, unlock or barrier id outside
// [0, 1<<16) is an error where the program is built, so neither engine
// ever runs it.
func TestFacadeRefusesBadSyncIDs(t *testing.T) {
	for _, id := range []int64{-1, 1 << 16} {
		for op, emit := range map[string]func(*clustersmt.ProgramBuilder){
			"lock":    func(b *clustersmt.ProgramBuilder) { b.Lock(id) },
			"unlock":  func(b *clustersmt.ProgramBuilder) { b.Unlock(id) },
			"barrier": func(b *clustersmt.ProgramBuilder) { b.Barrier(id) },
		} {
			b := clustersmt.NewProgram("bad-sync")
			b.GlobalWords("nthreads", []uint64{1})
			emit(b)
			b.Halt()
			p, err := b.Build()
			if err != nil {
				if !strings.Contains(err.Error(), "sync object id") {
					t.Errorf("%s #%d: Build: %v", op, id, err)
				}
				continue
			}
			if _, err := clustersmt.SimulateProgram(clustersmt.LowEnd(clustersmt.FA1), p); err == nil {
				t.Errorf("%s #%d: SimulateProgram ran it", op, id)
			}
			if _, err := clustersmt.RunFunctional(p, 1); err == nil {
				t.Errorf("%s #%d: RunFunctional ran it", op, id)
			}
		}
	}
}
