package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/core"
)

// Job states as reported by the API.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one submitted simulation flowing through the pool. All mutable
// fields are guarded by mu; done closes when the job reaches a terminal
// state.
type Job struct {
	ID   string
	Rj   *ResolvedJob
	Hash [32]byte
	// TraceID names the job's spans: set once at submission
	// (before the job is visible to any worker), read-only after.
	TraceID string

	mu        sync.Mutex
	state     string
	res       *core.Result
	errMsg    string
	cacheHit  bool
	cacheTier string
	submitted time.Time

	// pool is the pool whose worker is running the job, nil before pickup
	// and for jobs completed inline from the cache. Its counters are
	// published by finish, before the terminal state can be observed.
	pool *Pool

	done chan struct{}
}

// NewJob returns a queued job for the resolved spec.
func NewJob(id string, rj *ResolvedJob) *Job {
	return &Job{
		ID:        id,
		Rj:        rj,
		Hash:      rj.Hash(),
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// submittedAt returns the admission timestamp — the anchor for
// queue-wait and end-to-end latency observations.
func (j *Job) submittedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.submitted
}

func (j *Job) start(p *Pool) {
	j.mu.Lock()
	j.state = StateRunning
	j.pool = p
	j.mu.Unlock()
}

// finish moves the job to a terminal state. The running pool's gauge
// and completed counter move first, under the same lock that guards the
// state: whoever sees the job done — through Done or a status poll —
// and then reads the pool's counters finds the job already counted.
func (j *Job) finish(state string, res *core.Result, tier, errMsg string) {
	j.mu.Lock()
	if p := j.pool; p != nil {
		j.pool = nil
		p.running.Add(-1)
		p.completed.Add(1)
	}
	j.state = state
	j.res = res
	j.cacheHit = tier != ""
	j.cacheTier = tier
	j.errMsg = errMsg
	j.mu.Unlock()
	close(j.done)
}

// Complete marks the job done with a result; tier is "" for a fresh
// run, TierMemory/TierDisk for a cache hit.
func (j *Job) Complete(res *core.Result, tier string) { j.finish(StateDone, res, tier, "") }

// Fail marks the job failed.
func (j *Job) Fail(err error) { j.finish(StateFailed, nil, "", err.Error()) }

// ErrQueueFull is returned by Submit when the FIFO is at capacity — the
// admission-control signal the HTTP layer turns into 429 + Retry-After.
var ErrQueueFull = errors.New("service: job queue full")

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = errors.New("service: server draining")

// DefaultQueueCap is the FIFO bound when the caller passes 0.
const DefaultQueueCap = 64

// Pool is the bounded worker pool: a FIFO channel of capacity Q feeding
// N workers. Admission control is the channel bound itself — Submit
// never blocks; a full queue is an immediate ErrQueueFull, keeping the
// daemon's memory footprint and worst-case latency bounded rather than
// accepting unbounded work.
type Pool struct {
	jobs    chan *Job
	run     func(ctx context.Context, j *Job)
	workers int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	draining atomic.Bool
	queued   atomic.Int64
	running  atomic.Int64

	accepted  atomic.Uint64
	rejected  atomic.Uint64
	completed atomic.Uint64

	// gate, when non-nil, is received from before each job runs — a
	// test hook making backpressure deterministic (hold the gate, fill
	// the queue, observe 429s, release).
	gate chan struct{}
}

// NewPool starts workers goroutines servicing a FIFO of capacity
// queueCap (0 = DefaultQueueCap). run executes one job and must mark it
// terminal; ctx passed to run is canceled when the pool stops.
func NewPool(workers, queueCap int, run func(ctx context.Context, j *Job)) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		jobs:    make(chan *Job, queueCap),
		run:     run,
		workers: workers,
		ctx:     ctx,
		cancel:  cancel,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.queued.Add(-1)
		if p.gate != nil {
			select {
			case <-p.gate:
			case <-p.ctx.Done():
				p.completed.Add(1) // before the failure is observable, as finish does
				j.Fail(ErrDraining)
				continue
			}
		}
		p.running.Add(1)
		j.start(p)
		p.run(p.ctx, j)
	}
}

// Submit enqueues j, failing fast when the FIFO is full or the pool is
// draining.
func (p *Pool) Submit(j *Job) error {
	if p.draining.Load() {
		p.rejected.Add(1)
		return ErrDraining
	}
	select {
	case p.jobs <- j:
		p.queued.Add(1)
		p.accepted.Add(1)
		return nil
	default:
		p.rejected.Add(1)
		return ErrQueueFull
	}
}

// Depth returns the current queue depth (jobs admitted, not yet picked
// up by a worker).
func (p *Pool) Depth() int { return int(p.queued.Load()) }

// Running returns the number of jobs currently executing.
func (p *Pool) Running() int { return int(p.running.Load()) }

// Cap returns the queue capacity.
func (p *Pool) Cap() int { return cap(p.jobs) }

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// Counters returns accepted / rejected / completed totals.
func (p *Pool) Counters() (accepted, rejected, completed uint64) {
	return p.accepted.Load(), p.rejected.Load(), p.completed.Load()
}

// Drain stops admission and waits for queued and running jobs to
// finish; when ctx expires first, the remaining work is canceled (run
// contexts fire) and Drain waits for the workers to observe it. Always
// returns once every worker has exited.
func (p *Pool) Drain(ctx context.Context) {
	if p.draining.Swap(true) {
		p.wg.Wait() // second caller: just wait for the first drain
		return
	}
	close(p.jobs)
	idle := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
		p.cancel() // abort in-flight simulations
		<-idle
	}
	p.cancel()
}
