package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/obs"
	"clustersmt/internal/prog"
)

// searchMix returns n single-thread jobs of mixed lengths and shapes —
// short and long streaming sums, a dependent-miss pointer chase — so
// that candidate assignments really score differently.
func searchMix(n int) []*prog.Program {
	jobs := make([]*prog.Program, n)
	for i := range jobs {
		switch i % 4 {
		case 0:
			jobs[i] = buildJob(int64(i)*1000, 4096)
		case 1:
			jobs[i] = buildCancelChase()
		case 2:
			jobs[i] = buildJob(int64(i)*1000, 256)
		default:
			jobs[i] = buildJob(int64(i)*1000, 1024)
		}
	}
	return jobs
}

// searchStaticSequential is SearchStatic as it was before candidates
// were scored concurrently: one candidate after another, best and worst
// tracked on the way. Kept as the reference for the worker version.
func searchStaticSequential(mk func() (*Simulator, error), prefixCycles int64, maxCandidates int) (best, worst []int, err error) {
	probe, err := mk()
	if err != nil {
		return nil, nil, err
	}
	cands := enumerateAssignments(len(probe.threads), probe.clusterInfos(), maxCandidates)
	var bestScore, worstScore uint64
	for i, cand := range cands {
		sim, err := mk()
		if err != nil {
			return nil, nil, err
		}
		if err := sim.SetAssignment(cand); err != nil {
			return nil, nil, err
		}
		if err := sim.RunTo(prefixCycles); err != nil {
			return nil, nil, err
		}
		score := sim.committed
		if i == 0 || score > bestScore {
			bestScore, best = score, cand
		}
		if i == 0 || score < worstScore {
			worstScore, worst = score, cand
		}
	}
	return best, worst, nil
}

// TestSearchStaticMatchesSequential: the concurrent search returns the
// sequential reference's best and worst assignments on a low-end and a
// high-end SMT2 mix, whatever GOMAXPROCS is (1 runs the same loop on
// one worker).
func TestSearchStaticMatchesSequential(t *testing.T) {
	for _, m := range []config.Machine{config.LowEnd(config.SMT2), config.HighEnd(config.SMT2)} {
		jobs := searchMix(m.Threads() / 2)
		mk := func() (*Simulator, error) { return NewMulti(m, jobs) }
		const prefix, limit = 3_000, 24
		wantBest, wantWorst, err := searchStaticSequential(mk, prefix, limit)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(wantBest, wantWorst) {
			t.Fatalf("%s: best == worst == %v; the mix does not discriminate", m.Name, wantBest)
		}
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			best, worst, err := SearchStatic(mk, prefix, limit)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", m.Name, procs, err)
			}
			if !reflect.DeepEqual(best, wantBest) || !reflect.DeepEqual(worst, wantWorst) {
				t.Errorf("%s GOMAXPROCS=%d: best %v worst %v, sequential reference best %v worst %v",
					m.Name, procs, best, worst, wantBest, wantWorst)
			}
		}
	}
}

// TestSearchStaticFirstError makes candidates 1 and 3 fail — each
// simulator interrupts itself once it sees it was given one of those
// assignments, candidate 3 at once and candidate 1 only late in its
// prefix, so with four workers the higher index fails first in time —
// and requires the reported error to be candidate 1's on every one of
// 50 searches, however the workers interleave. Then candidate 2 panics
// instead: the search must return that as candidate 2's error, not
// crash, and leave no worker behind.
func TestSearchStaticFirstError(t *testing.T) {
	m := config.LowEnd(config.SMT2)
	jobs := searchMix(m.Threads() / 2)
	probe, err := NewMulti(m, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cands := enumerateAssignments(len(jobs), probe.clusterInfos(), 8)
	if len(cands) != 8 {
		t.Fatalf("%d candidates, want 8", len(cands))
	}
	// Assignment → the cycle from which that candidate interrupts itself.
	failFrom := map[string]int64{fmt.Sprint(cands[1]): 2_500, fmt.Sprint(cands[3]): 0}
	mk := func() (*Simulator, error) {
		s, err := NewMulti(m, jobs)
		if err != nil {
			return nil, err
		}
		intr := make(chan struct{})
		s.Interrupt = intr
		s.EnableMetrics(64, 1)
		closed := false
		s.OnInterval(func(f obs.Frame) {
			if from, bad := failFrom[fmt.Sprint(s.Assignment())]; bad && !closed && f.End >= from {
				closed = true
				close(intr)
			}
		})
		return s, nil
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	want := fmt.Sprintf("candidate 1 %v", cands[1])
	for run := 0; run < 50; run++ {
		_, _, err := SearchStatic(mk, 6_000, 8)
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("run %d: want a wrapped ErrInterrupted, got %v", run, err)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("run %d: error %q is not the lowest failing candidate's (%s)", run, err, want)
		}
	}

	// A candidate that panics fails like any other, and the search
	// still waits for every worker.
	before := runtime.NumGoroutine()
	panicky := func() (*Simulator, error) {
		s, err := NewMulti(m, jobs)
		if err != nil {
			return nil, err
		}
		s.EnableMetrics(64, 1)
		s.OnInterval(func(obs.Frame) {
			if fmt.Sprint(s.Assignment()) == fmt.Sprint(cands[2]) {
				panic("candidate 2 misbehaves")
			}
		})
		return s, nil
	}
	_, _, err = SearchStatic(panicky, 6_000, 8)
	if want := fmt.Sprintf("candidate 2 %v: panic: candidate 2 misbehaves", cands[2]); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("panicking candidate: got %v, want an error containing %q", err, want)
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails unless the goroutine count returns to before (or
// below: a goroutine the search never started may exit meanwhile). A
// worker's deferred wg.Done releases a search a moment before the
// goroutine itself is gone, so the stragglers get time to exit.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the search, %d after", before, after)
	}
}

// TestSearchStaticCancel: with the Interrupt channel already closed the
// search gives up with a wrapped ErrInterrupted, and it has waited for
// its workers — the goroutine count is back where it started.
func TestSearchStaticCancel(t *testing.T) {
	m := config.HighEnd(config.SMT2)
	jobs := searchMix(m.Threads() / 2)
	intr := make(chan struct{})
	close(intr)
	mk := func() (*Simulator, error) {
		s, err := NewMulti(m, jobs)
		if err != nil {
			return nil, err
		}
		s.Interrupt = intr
		return s, nil
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	before := runtime.NumGoroutine()
	best, worst, err := SearchStatic(mk, SearchPrefixCycles, SearchMaxCandidates)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want a wrapped ErrInterrupted, got %v", err)
	}
	if best != nil || worst != nil {
		t.Fatalf("cancelled search returned assignments %v / %v", best, worst)
	}
	waitGoroutines(t, before)
}

// TestEnumerateAssignmentsGolden pins the canonical enumeration order
// (SearchStatic's tie-breaks, and which 64 candidates a capped search
// sees, depend on it) for the two benchmark machines and the widest
// preset, at the standard cap. The digests are of fmt.Sprint of the
// whole enumeration, taken before enumerateAssignments was tidied.
func TestEnumerateAssignmentsGolden(t *testing.T) {
	cases := []struct {
		m           config.Machine
		count       int
		first, last string
		sha         string
	}{
		{config.LowEnd(config.SMT2), 8, "[0 0 0 0]", "[0 1 1 1]",
			"fbf6359c1760e11c4461770722ae78557b7de751098457922f0009c6b191f0f6"},
		{config.HighEnd(config.SMT2), 64, "[0 0 0 0 1 1 1 1 2 2 2 2 3 3 3 3]", "[0 0 0 0 1 1 1 1 2 2 2 2 4 5 4 5]",
			"25168e086a26d5b4aa0b9f687e5cb373df2a586927533f8a0b888024417b448e"},
		{config.HighEnd(config.FA8), 64, "[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15]", "[0 1 2 3 4 5 6 7 8 9 10 16 11 24 17 18]",
			"0ac13bb2ed687cebec146b7fdd670ad58d8cb84e5379a957bba859e299b71afa"},
	}
	for _, c := range cases {
		jobs := make([]*prog.Program, c.m.Threads()/2)
		for i := range jobs {
			jobs[i] = buildJob(int64(i), 8)
		}
		sim, err := NewMulti(c.m, jobs)
		if err != nil {
			t.Fatal(err)
		}
		got := enumerateAssignments(len(jobs), sim.clusterInfos(), SearchMaxCandidates)
		if len(got) != c.count {
			t.Fatalf("%s: %d candidates, want %d", c.m.Name, len(got), c.count)
		}
		if first, last := fmt.Sprint(got[0]), fmt.Sprint(got[len(got)-1]); first != c.first || last != c.last {
			t.Errorf("%s: first %s last %s, want %s and %s", c.m.Name, first, last, c.first, c.last)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(got)))); sum != c.sha {
			t.Errorf("%s: enumeration digest %s, want %s", c.m.Name, sum, c.sha)
		}
	}
}
