package core

import (
	"reflect"
	"sync"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/prog"
	"clustersmt/internal/workloads"
)

// TestSnapshotRoundTripRace is the copy-on-write layer's race check
// (run under -race by `make race`): several children forked from one
// warmed parent run concurrently with each other AND with the parent
// continuing, all sharing COW interpreter pages and cache arrays until
// first write. Every run must still be bit-identical to its scratch
// counterpart.
func TestSnapshotRoundTripRace(t *testing.T) {
	base := checkpointSpec()
	base.WarmupIters = 1500
	variants := []workloads.SyntheticSpec{base}
	for _, chain := range []int{0, 4, 6} {
		v := base
		v.ChainLen = chain
		v.IndepOps = 6 - chain
		variants = append(variants, v)
	}
	m := config.LowEnd(config.SMT2)
	build := func(spec workloads.SyntheticSpec) *prog.Program {
		return workloads.Synthetic(spec).Build(m.Threads(), m.Chips, workloads.SizeTest)
	}
	run := func(s *Simulator) *Result {
		r, err := s.Run()
		if err != nil {
			t.Error(err)
		}
		return r
	}

	refs := make([]*Result, len(variants))
	for i, spec := range variants {
		sim, err := New(m, build(spec))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = run(sim)
	}

	parent, err := New(m, build(variants[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(1000); err != nil {
		t.Fatal(err)
	}
	if !parent.PrefixValid() {
		t.Fatalf("warm-up over by cycle %d; enlarge WarmupIters", parent.cycle)
	}

	// Forks are serialized (they mutate the parent's COW bookkeeping);
	// the forked children and the continuing parent then all run
	// concurrently over the shared frozen state.
	children := make([]*Simulator, len(variants))
	for i, spec := range variants {
		children[i], err = parent.ForkProgram(build(spec))
		if err != nil {
			t.Fatalf("fork variant %d: %v", i, err)
		}
	}
	results := make([]*Result, len(variants))
	var parentRes *Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		parentRes = run(parent)
	}()
	for i := range children {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = run(children[i])
		}(i)
	}
	wg.Wait()

	if !reflect.DeepEqual(refs[0], parentRes) {
		t.Error("parent-continue result differs from scratch")
	}
	for i := range variants {
		if !reflect.DeepEqual(refs[i], results[i]) {
			t.Errorf("variant %d: concurrent forked result differs from scratch", i)
		}
	}
}
