package core

import (
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// buildJob returns a small single-thread job that sums 0..n-1 into
// "out" (with per-job distinct data so cross-job isolation is visible).
func buildJob(seed, n int64) *prog.Program {
	b := prog.NewBuilder("job")
	b.GlobalWords("nthreads", []uint64{1})
	data := b.Global("data", n)
	out := b.Global("out", 1)
	b.Li(1, 0)
	b.Li(2, n)
	b.Li(3, 0)
	b.CountedLoop(1, 2, func() {
		b.Shli(4, 1, 3)
		b.Ld(5, 4, data)
		b.Add(3, 3, 5)
	})
	b.St(3, 0, out)
	b.Barrier(0) // single-participant barrier: must trip immediately
	b.Halt()
	p := b.MustBuild()
	for i := int64(0); i < n; i++ {
		p.Init.Set(data+i*prog.WordSize, uint64(seed+i))
	}
	return p
}

func TestMultiprogramIsolation(t *testing.T) {
	m := config.LowEnd(config.FA8)
	jobs := make([]*prog.Program, 8)
	for i := range jobs {
		jobs[i] = buildJob(int64(i)*1000, 64)
	}
	sim, err := NewMulti(m, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range jobs {
		want := uint64(0)
		for k := int64(0); k < 64; k++ {
			want += uint64(int64(i)*1000 + k)
		}
		if got := sim.mems[i].Load(p.SymbolAddr("out")); got != want {
			t.Errorf("job %d: out = %d, want %d", i, got, want)
		}
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	// Every job's barrier must have tripped alone.
	if res.BarrierWaits != 8 {
		t.Errorf("barrier episodes = %d, want 8 (one per job)", res.BarrierWaits)
	}
}

func TestMultiprogramAddressSpacesDisjointInCaches(t *testing.T) {
	// Two jobs with identical programs: identical virtual addresses must
	// land on different physical lines (no cross-job hits corrupting
	// latency accounting, and crucially no coherence interference).
	m := config.LowEnd(config.SMT2)
	jobs := []*prog.Program{buildJob(1, 32), buildJob(2, 32)}
	sim, err := NewMulti(m, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Functional isolation is the observable: each job sees only its own
	// data despite identical addresses.
	if sim.mems[0].Load(jobs[0].SymbolAddr("out")) == sim.mems[1].Load(jobs[1].SymbolAddr("out")) {
		t.Fatal("jobs computed identical sums from different data")
	}
}

func TestMultiprogramValidation(t *testing.T) {
	m := config.LowEnd(config.FA8)
	if _, err := NewMulti(m, nil); err == nil {
		t.Error("empty job list accepted")
	}
	jobs := make([]*prog.Program, 9)
	for i := range jobs {
		jobs[i] = buildJob(0, 4)
	}
	if _, err := NewMulti(m, jobs); err == nil {
		t.Error("more jobs than contexts accepted")
	}
}

func TestMultiprogramFewerJobsThanContexts(t *testing.T) {
	m := config.LowEnd(config.SMT1)
	jobs := []*prog.Program{buildJob(5, 32), buildJob(9, 32), buildJob(11, 32)}
	sim, err := NewMulti(m, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerThreadCommitted) != 3 {
		t.Fatalf("threads = %d, want 3", len(res.PerThreadCommitted))
	}
}

// TestMultiprogramSMTSharing: on a job mix with very different ILP, the
// SMT1 must beat FA8 in total throughput (the classic SMT
// multiprogramming result the paper builds on): the high-ILP job can
// use issue slots the low-ILP jobs leave idle.
func TestMultiprogramSMTSharing(t *testing.T) {
	// Mix: one wide-ILP job + seven chained low-ILP jobs.
	mkWide := func() *prog.Program {
		b := prog.NewBuilder("wide")
		b.GlobalWords("nthreads", []uint64{1})
		b.Fli(0, 1.25)
		b.Li(1, 0)
		b.Li(2, 3000)
		b.CountedLoop(1, 2, func() {
			for d := 1; d <= 6; d++ {
				b.Fmul(isaReg(d), 0, 0)
			}
		})
		b.Halt()
		return b.MustBuild()
	}
	mkChain := func() *prog.Program {
		b := prog.NewBuilder("chain")
		b.GlobalWords("nthreads", []uint64{1})
		b.Fli(0, 1.0001)
		b.Fli(1, 0.999)
		b.Li(1, 0)
		b.Li(2, 1500)
		b.CountedLoop(1, 2, func() {
			b.Fmul(1, 1, 0)
			b.Fadd(1, 1, 0)
		})
		b.Halt()
		return b.MustBuild()
	}
	run := func(arch config.Arch) int64 {
		jobs := []*prog.Program{mkWide()}
		for i := 0; i < 7; i++ {
			jobs = append(jobs, mkChain())
		}
		sim, err := NewMulti(config.LowEnd(arch), jobs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	fa8 := run(config.FA8)
	smt1 := run(config.SMT1)
	if smt1 >= fa8 {
		t.Errorf("SMT1 (%d cycles) did not beat FA8 (%d) on a mixed-ILP job set", smt1, fa8)
	}
}

func isaReg(d int) isa.Reg { return isa.Reg(d) }
