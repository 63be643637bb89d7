package harness

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/workloads"
)

// TestSingleflightSharesConcurrentRuns hammers one (app, arch) key from
// many goroutines at once: exactly one simulation may run, and every
// caller must get the same *Result pointer. Run under -race this also
// exercises the in-flight synchronization itself.
func TestSingleflightSharesConcurrentRuns(t *testing.T) {
	s := NewSuite(workloads.SizeTest)
	w, err := workloads.ByName("vpenta")
	if err != nil {
		t.Fatal(err)
	}

	const callers = 16
	results := make([]*core.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Run(w, config.FA8, false)
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *Result: the run was duplicated", i)
		}
	}
}

// TestSuiteCachesErrors forces a failing configuration (a MaxCycles too
// small to finish anything) and checks the failure is simulated once:
// the second call must return the identical cached error instance
// instead of re-running the doomed simulation. A panicking run is such a
// failure too: its owner, and a caller waiting on it meanwhile, get an
// error naming the panic instead of a crashed process, and the memo
// answers the next call without simulating again.
func TestSuiteCachesErrors(t *testing.T) {
	s := NewSuite(workloads.SizeTest)
	s.MaxCycles = 10 // nothing finishes in 10 cycles
	w, err := workloads.ByName("vpenta")
	if err != nil {
		t.Fatal(err)
	}

	_, err1 := s.Run(w, config.FA8, false)
	if err1 == nil {
		t.Fatal("expected a MaxCycles failure")
	}
	_, err2 := s.Run(w, config.FA8, false)
	if err2 != err1 {
		t.Fatalf("error not cached: %v vs %v", err1, err2)
	}

	p := NewSuite(workloads.SizeTest)
	entered, release := make(chan struct{}), make(chan struct{})
	p.OnSimulate = func(context.Context, string, string, bool, time.Duration, error) {
		close(entered)
		<-release
		panic("simulation hook misbehaves")
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	run := func(ctx context.Context, i int) {
		defer wg.Done()
		_, errs[i] = p.RunContext(ctx, w, config.SMT2, false)
	}
	wg.Add(2)
	go run(context.Background(), 0)
	<-entered
	waiter := &doneWatch{Context: context.Background(), called: make(chan struct{})}
	go run(waiter, 1)
	<-waiter.called // the second caller is waiting on the owner's run
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panic: simulation hook misbehaves") {
			t.Fatalf("caller %d: got %v, want the run's panic as an error", i, err)
		}
	}
	if _, err := p.Run(w, config.SMT2, false); err == nil || p.Simulations() != 1 {
		t.Fatalf("panicked run not answered from the memo: err %v, %d simulations", err, p.Simulations())
	}
}

// doneWatch is a context that reports when a caller first asks for its
// Done channel — for a singleflight waiter, the moment it starts waiting.
type doneWatch struct {
	context.Context
	once   sync.Once
	called chan struct{}
}

func (c *doneWatch) Done() <-chan struct{} {
	c.once.Do(func() { close(c.called) })
	return c.Context.Done()
}

// TestMemoBounded: a suite's memos hold a bounded number of finished
// runs — what keeps a daemon's memory flat under a stream of distinct
// jobs. Past the bound the run that finished longest ago is forgotten
// together with its frame ring, and asking for it again simulates it
// again, to the same result.
func TestMemoBounded(t *testing.T) {
	const bound, extra = 4, 3
	s := NewSuite(workloads.SizeTest)
	s.max = bound
	s.MetricsInterval = 1000
	cell := func(i int) workloads.Workload {
		return workloads.Synthetic(workloads.SyntheticSpec{ChainLen: 1 + i, Iters: 64})
	}
	var first *core.Result
	for i := 0; i < bound+extra; i++ {
		r, err := s.Run(cell(i), config.SMT2, false)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = r
		}
		if n := len(s.cache); n > bound {
			t.Fatalf("after %d runs the memo holds %d entries, bound %d", i+1, n, bound)
		}
	}
	if n := len(s.MetricsRuns()); n != bound {
		t.Fatalf("%d frame rings retained, want %d (a ring goes with its memo entry)", n, bound)
	}
	if s.Metrics(cell(0).Name+"@low-end/SMT2") != nil || s.Metrics(cell(bound+extra-1).Name+"@low-end/SMT2") == nil {
		t.Fatal("the oldest run's ring should be gone and the newest run's retained")
	}
	// The newest run is still memoized; the oldest computes again.
	before := s.Simulations()
	if _, err := s.Run(cell(bound+extra-1), config.SMT2, false); err != nil || s.Simulations() != before {
		t.Fatalf("newest cell re-simulated (err %v)", err)
	}
	again, err := s.Run(cell(0), config.SMT2, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Simulations() != before+1 {
		t.Fatalf("evicted cell was served without simulating: %d simulations, want %d", s.Simulations(), before+1)
	}
	if again == first || !reflect.DeepEqual(again, first) {
		t.Fatal("re-running an evicted cell must produce a new, equal Result")
	}
}
