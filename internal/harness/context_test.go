package harness

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/workloads"
)

// TestRunContextCancel checks the cancellation contract: a canceled run
// returns promptly with a context error, and — crucially — does not
// poison the cache: the next identical request with a live context
// re-runs and succeeds.
func TestRunContextCancel(t *testing.T) {
	s := NewSuite(workloads.SizeTest)
	w, err := workloads.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the run even starts
	if _, err := s.RunContext(ctx, w, config.SMT2, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run: got %v, want context.Canceled", err)
	}

	// The canceled attempt must not be cached as a failure.
	r, err := s.RunContext(context.Background(), w, config.SMT2, false)
	if err != nil {
		t.Fatalf("run after cancellation failed: %v", err)
	}
	if r == nil || r.Cycles <= 0 {
		t.Fatalf("run after cancellation returned a bogus result: %+v", r)
	}
}

// TestRunContextCancelMidRun cancels while the simulation is in flight
// and checks Run returns well before the full simulation would.
func TestRunContextCancelMidRun(t *testing.T) {
	s := NewSuite(workloads.SizeRef) // ref input: long enough to cancel mid-flight
	w, err := workloads.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.RunContext(ctx, w, config.SMT1, false)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the simulation start
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-run cancel: got %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled run did not return promptly")
	}

	// Cache intact: the canceled run's slot was removed (not cached as
	// a failure), so the next identical request would re-run. Checked
	// directly rather than by re-running the full ref-size simulation.
	s.mu.Lock()
	_, stillCached := s.cache[key(w.Name, config.SMT1, 1, config.AllocConfig{})]
	s.mu.Unlock()
	if stillCached {
		t.Fatal("canceled run left a poisoned cache entry")
	}
}

// TestRunContextCanceledOwnerHandsOff starts an owner that gets
// canceled while waiters with live contexts share its singleflight
// slot; the waiters must retry (one becoming the new owner) and all
// receive a real result.
func TestRunContextCanceledOwnerHandsOff(t *testing.T) {
	s := NewSuite(workloads.SizeTest)
	w, err := workloads.ByName("mgrid")
	if err != nil {
		t.Fatal(err)
	}

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := s.RunContext(ownerCtx, w, config.FA4, false)
		ownerErr <- err
	}()

	const waiters = 4
	var wg sync.WaitGroup
	results := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = s.RunContext(context.Background(), w, config.FA4, false)
		}(i)
	}

	cancelOwner()
	if err := <-ownerErr; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("owner: got %v, want nil or context.Canceled", err)
	}
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("waiter %d failed after owner cancellation: %v", i, err)
		}
	}
}

// TestRunMatrixConcurrentCallers races several full RunMatrix calls on
// one shared suite (the clusterd serving pattern: overlapping figure
// requests). Every caller must observe the same cached results — the
// singleflight shares one *core.Result per physical configuration.
func TestRunMatrixConcurrentCallers(t *testing.T) {
	s := NewSuite(workloads.SizeTest)
	apps := []workloads.Workload{}
	for _, name := range []string{"swim", "vpenta"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, w)
	}
	archs := []config.Arch{config.FA8, config.SMT8, config.SMT2}

	const callers = 6
	var wg sync.WaitGroup
	outs := make([]map[string]map[string]interface{}, callers)
	errs := make([]error, callers)
	raw := make([]map[string]map[string]uintptr, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.RunMatrixContext(context.Background(), apps, archs, false)
			errs[i] = err
			if err != nil {
				return
			}
			ptrs := make(map[string]map[string]uintptr)
			vals := make(map[string]map[string]interface{})
			for app, row := range res {
				ptrs[app] = make(map[string]uintptr)
				vals[app] = make(map[string]interface{})
				for arch, r := range row {
					ptrs[app][arch] = reflect.ValueOf(r).Pointer()
					vals[app][arch] = r.Cycles
				}
			}
			raw[i] = ptrs
			outs[i] = vals
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(raw[0], raw[i]) {
			t.Fatalf("caller %d saw different result pointers than caller 0 (singleflight broken)", i)
		}
		if !reflect.DeepEqual(outs[0], outs[i]) {
			t.Fatalf("caller %d saw different cycle counts than caller 0", i)
		}
	}
	// FA8 and SMT8 share one physical configuration → one result object.
	for _, app := range []string{"swim", "vpenta"} {
		if raw[0][app]["FA8"] != raw[0][app]["SMT8"] {
			t.Fatalf("%s: FA8 and SMT8 did not share a cached run", app)
		}
	}
}

// TestOraclePolicy runs a cell under the oracle policy, whose offline
// search builds its throwaway simulators concurrently from the cell's
// one shared program (the -race leg is what checks that sharing), and
// requires two fresh suites to agree on the result.
func TestOraclePolicy(t *testing.T) {
	w, err := workloads.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *core.Result {
		t.Helper()
		s := NewSuite(workloads.SizeTest)
		s.AllocPolicy = "oracle"
		r, err := s.Run(w, config.SMT2, false)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if a, b := run(), run(); a.Cycles <= 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("oracle runs differ or are empty:\n%+v\n%+v", a, b)
	}
}
