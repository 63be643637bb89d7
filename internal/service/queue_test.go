package service

import (
	"context"
	"testing"
	"time"
)

// TestPoolCountersPrecedeTerminalState is the regression test for the
// TestMetricsEndpoint flake: the worker used to decrement the running
// gauge and bump the completed counter only after run returned, i.e.
// after Complete had already closed Done, so a scrape racing the worker
// read completed=0 / running=1 for a job its client had seen finish.
// Here run parks right after Complete — the descheduled worker — and
// the counters must already be published when Done fires.
func TestPoolCountersPrecedeTerminalState(t *testing.T) {
	park := make(chan struct{})
	p := NewPool(1, 4, func(ctx context.Context, j *Job) {
		j.Complete(nil, "")
		<-park
	})
	defer p.Drain(context.Background())
	defer close(park)

	j := NewJob("j1", &ResolvedJob{})
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job never completed")
	}
	if _, _, completed := p.Counters(); completed != 1 {
		t.Errorf("completed = %d when Done fired, want 1", completed)
	}
	if r := p.Running(); r != 0 {
		t.Errorf("running = %d when Done fired, want 0", r)
	}
}

// TestPoolCountsDrainFailures: a job a gated worker had already taken
// off the queue when the drain deadline passed fails with ErrDraining;
// it reached a terminal state through the pool, so it counts as
// completed — and is counted before the failure is observable.
func TestPoolCountsDrainFailures(t *testing.T) {
	p := NewPool(1, 4, func(ctx context.Context, j *Job) { j.Complete(nil, "") })
	p.gate = make(chan struct{}) // never opened
	j := NewJob("j1", &ResolvedJob{})
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Drain(ctx)
	<-j.Done()
	if v := j.view(); v.Status != StateFailed {
		t.Fatalf("job state %q, want failed", v.Status)
	}
	if _, _, completed := p.Counters(); completed != 1 {
		t.Errorf("completed = %d after a drain failure, want 1", completed)
	}
	if r := p.Running(); r != 0 {
		t.Errorf("running = %d after drain, want 0", r)
	}
}
