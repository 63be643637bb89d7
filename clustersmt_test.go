package clustersmt_test

import (
	"context"
	"math"
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
