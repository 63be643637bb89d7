package harness

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/workloads"
)

// TestRemoteHookServesAndCaches pins the Store hook contract: an answer
// given without simulating becomes the run's cached outcome (one hook
// call per physical config, even across aliased archs and concurrent
// callers), a hook that calls simulate gets the local run and sees its
// result, and an error the hook returns is cached like a local failure.
func TestRemoteHookServesAndCaches(t *testing.T) {
	ocean, err := workloads.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}

	// Reference: what a local run produces.
	ref, err := NewSuite(workloads.SizeTest).Run(ocean, config.SMT2, false)
	if err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	canned := &core.Result{Cycles: 12345}
	s := NewSuite(workloads.SizeTest)
	s.Store = func(ctx context.Context, app string, arch config.Arch, highEnd bool, simulate func() (*core.Result, error)) (*core.Result, error) {
		calls.Add(1)
		if app != ocean.Name || highEnd {
			t.Errorf("hook saw (%s, highEnd=%v), want (%s, false)", app, highEnd, ocean.Name)
		}
		return canned, nil
	}

	const n = 8
	var wg sync.WaitGroup
	results := make([]*core.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arch := config.FA8
			if i%2 == 1 {
				arch = config.SMT8 // aliases FA8's physical config
			}
			r, err := s.Run(ocean, arch, false)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("store hook called %d times for one physical config, want 1 (singleflight + aliasing)", got)
	}
	for i, r := range results {
		if r != canned {
			t.Fatalf("caller %d got %+v, want the stored result", i, r)
		}
	}
	if s.Simulations() != 0 {
		t.Fatalf("%d local simulations ran despite the store answering everything", s.Simulations())
	}

	// A hook that simulates gets the local run, bit-identical to a plain
	// run, and sees the result it returns.
	var kept *core.Result
	through := NewSuite(workloads.SizeTest)
	through.Store = func(ctx context.Context, app string, arch config.Arch, highEnd bool, simulate func() (*core.Result, error)) (*core.Result, error) {
		res, err := simulate()
		kept = res
		return res, err
	}
	local, err := through.Run(ocean, config.SMT2, false)
	if err != nil {
		t.Fatal(err)
	}
	if local.Cycles != ref.Cycles || local.IPC != ref.IPC {
		t.Fatalf("simulated-through-the-hook run differs from a plain run: %d cycles vs %d", local.Cycles, ref.Cycles)
	}
	if kept != local {
		t.Fatal("the hook did not see the result the suite returned")
	}
	if through.Simulations() != 1 {
		t.Fatalf("fallback ran %d simulations, want 1", through.Simulations())
	}

	// Hook error → cached failure: second call must not re-invoke.
	var failCalls atomic.Int64
	failing := NewSuite(workloads.SizeTest)
	storeErr := errors.New("store exploded")
	failing.Store = func(ctx context.Context, app string, arch config.Arch, highEnd bool, simulate func() (*core.Result, error)) (*core.Result, error) {
		failCalls.Add(1)
		return nil, storeErr
	}
	for i := 0; i < 2; i++ {
		if _, err := failing.Run(ocean, config.SMT2, false); !errors.Is(err, storeErr) {
			t.Fatalf("call %d: error %v, want wrapped store error", i, err)
		}
	}
	if failCalls.Load() != 1 {
		t.Fatalf("failing hook called %d times, want 1 (errors cache like results)", failCalls.Load())
	}
}

// TestRemoteHookCancellation pins that a hook surfacing ctx.Err()
// follows the cancel-retry path: the canceled owner's entry is removed,
// and the next caller re-runs rather than inheriting the cancellation.
func TestRemoteHookCancellation(t *testing.T) {
	ocean, err := workloads.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(workloads.SizeTest)
	simulateNow := false
	s.Store = func(ctx context.Context, app string, arch config.Arch, highEnd bool, simulate func() (*core.Result, error)) (*core.Result, error) {
		if simulateNow {
			return simulate() // second pass: simulate locally
		}
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, ocean, config.SMT2, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled lookup returned %v, want context.Canceled", err)
	}
	simulateNow = true
	if _, err := s.Run(ocean, config.SMT2, false); err != nil {
		t.Fatalf("post-cancel retry failed: %v (cancellation must not be cached)", err)
	}
}
