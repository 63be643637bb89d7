package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/telemetry"
)

// member is one registered worker as the coordinator sees it.
type member struct {
	URL      string
	Version  string
	Workers  int
	QueueCap int
	Depth    int
	Running  int
	lastBeat time.Time
}

// coordinator is the fabric front end: it owns the membership map and
// the consistent-hash ring over it, and provides the Remote hook that
// turns every simulation the coordinator's suites would run into a
// dispatch to the ring owner of the job's content hash.
//
// Identical configs hash identically (config.Machine.Canonical is
// name-free and alias-resolving), so the ring sends every repeat of a
// config to the node most likely to already hold its result — the
// fleet-wide analogue of the per-process singleflight.
type coordinator struct {
	s       *Server
	timeout time.Duration // heartbeat staleness bound before eviction

	mu      sync.Mutex
	members map[string]*member
	ring    *config.Ring

	dispatched atomic.Uint64 // runs resolved by a worker (ok or definitive failure)
	requeued   atomic.Uint64 // dispatch attempts rerouted after eviction or job loss
	evicted    atomic.Uint64 // members removed (stale heartbeat or unreachable)
	throttled  atomic.Uint64 // 429 waits honoring a worker's Retry-After
	fallbacks  atomic.Uint64 // runs simulated locally because no worker was usable

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newCoordinator(s *Server, timeout time.Duration) *coordinator {
	c := &coordinator{
		s:       s,
		timeout: timeout,
		members: make(map[string]*member),
		ring:    config.NewRing(0),
		stop:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.janitor()
	return c
}

// janitor evicts members whose heartbeats have gone stale. Polling at
// a quarter of the timeout bounds detection latency to ~1.25 timeouts.
func (c *coordinator) janitor() {
	defer c.wg.Done()
	period := c.timeout / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.mu.Lock()
			for url, m := range c.members {
				if now.Sub(m.lastBeat) > c.timeout {
					c.removeLocked(url, "missed heartbeats")
				}
			}
			c.mu.Unlock()
		}
	}
}

func (c *coordinator) close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// upsert records a registration (admit=true) or heartbeat (admit=false)
// and returns the requester's current peer set. A heartbeat from an
// unknown worker returns known=false — the 404 that triggers
// re-registration.
func (c *coordinator) upsert(req registerRequest, admit bool) (peers []string, known bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[req.URL]
	if !ok {
		if !admit {
			return nil, false
		}
		m = &member{URL: req.URL}
		c.members[req.URL] = m
		c.ring.Add(req.URL)
		slog.Info("fabric: worker joined",
			"worker", req.URL, "version", req.Version, "workers", req.Workers)
		if req.Version != c.s.version {
			slog.Warn("fabric: version mismatch",
				"worker", req.URL, "worker_version", req.Version, "coordinator_version", c.s.version)
		}
	}
	m.Version = req.Version
	m.Workers = req.Workers
	m.QueueCap = req.QueueCap
	m.Depth = req.Depth
	m.Running = req.Running
	m.lastBeat = time.Now()

	peers = make([]string, 0, len(c.members)-1)
	for url := range c.members {
		if url != req.URL {
			peers = append(peers, url)
		}
	}
	sort.Strings(peers)
	return peers, true
}

// removeLocked evicts url from membership and the ring. Dispatches
// already in flight to it fail on their next request and requeue —
// the ring no longer lists the member, so the retry lands elsewhere.
func (c *coordinator) removeLocked(url, reason string) {
	if _, ok := c.members[url]; !ok {
		return
	}
	delete(c.members, url)
	c.ring.Remove(url)
	c.evicted.Add(1)
	slog.Warn("fabric: evicted worker",
		"worker", url, "reason", reason, "remaining", len(c.members))
}

func (c *coordinator) evict(url, reason string) {
	c.mu.Lock()
	c.removeLocked(url, reason)
	c.mu.Unlock()
}

// owner returns the ring owner for a content hash, or ok=false when
// the fleet is empty.
func (c *coordinator) owner(hash [32]byte) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Owner(hash)
}

// fleetWorkers sums registered capacity, for Retry-After estimates.
func (c *coordinator) fleetWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, m := range c.members {
		n += m.Workers
	}
	return n
}

// health is the coordinator's /healthz fabric section.
func (c *coordinator) health() map[string]any {
	c.mu.Lock()
	peers := make([]map[string]any, 0, len(c.members))
	urls := make([]string, 0, len(c.members))
	for url := range c.members {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	for _, url := range urls {
		m := c.members[url]
		peers = append(peers, map[string]any{
			"url":               m.URL,
			"version":           m.Version,
			"workers":           m.Workers,
			"queue_cap":         m.QueueCap,
			"depth":             m.Depth,
			"running":           m.Running,
			"last_heartbeat_ms": time.Since(m.lastBeat).Milliseconds(),
		})
	}
	c.mu.Unlock()
	return map[string]any{
		"role":  "coordinator",
		"peers": peers,
		"counters": map[string]uint64{
			"dispatched":      c.dispatched.Load(),
			"requeued":        c.requeued.Load(),
			"evicted":         c.evicted.Load(),
			"throttled":       c.throttled.Load(),
			"local_fallbacks": c.fallbacks.Load(),
		},
	}
}

// dispatchVerdict classifies one attempt against one worker.
type dispatchVerdict int

const (
	dispatchDone  dispatchVerdict = iota // terminal: result or definitive error
	dispatchRetry                        // reroute: pick the (possibly new) ring owner again
)

// dispatch is the coordinator's Remote hook body: route the spec to
// the ring owner of its content hash and relay the outcome. The loop
// is the requeue path — any transport failure evicts the owner and
// re-picks on the rebalanced ring; a lost job (worker restarted and
// forgot it) re-picks without evicting. When no workers remain the
// hook declines (handled=false) and the harness simulates locally:
// degraded, never wrong.
func (c *coordinator) dispatch(ctx context.Context, spec JobSpec, hash [32]byte) (*core.Result, bool, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, true, err
		}
		owner, ok := c.owner(hash)
		if !ok {
			c.fallbacks.Add(1)
			return nil, false, nil
		}
		attempt := time.Now()
		res, verdict, err := c.tryWorker(ctx, owner, spec)
		observe(c.s.hist(func(t *svcTelemetry) *telemetry.Histogram { return t.dispatch }), time.Since(attempt))
		outcome := "done"
		if verdict == dispatchRetry {
			outcome = "retry"
		}
		c.s.span(telemetry.TraceIDFrom(ctx), "dispatch", attempt,
			map[string]string{"worker": owner, "outcome": outcome})
		if verdict == dispatchDone {
			if err == nil {
				c.dispatched.Add(1)
			}
			return res, true, err
		}
		c.requeued.Add(1)
	}
}

// tryWorker runs one dispatch attempt: submit, then long-poll to
// completion. Terminal job failures are returned as errors (they are
// deterministic simulation outcomes, cached like results); transport
// errors evict the worker and ask the caller to reroute.
func (c *coordinator) tryWorker(ctx context.Context, owner string, spec JobSpec) (*core.Result, dispatchVerdict, error) {
	view, status, err := c.postJob(ctx, owner, spec)
	switch {
	case err != nil:
		if ctx.Err() != nil {
			return nil, dispatchDone, ctx.Err()
		}
		slog.Warn("fabric: dispatch transport error",
			"worker", owner, "err", err, "trace_id", telemetry.TraceIDFrom(ctx))
		c.evict(owner, fmt.Sprintf("unreachable: %v", err))
		return nil, dispatchRetry, nil
	case status == http.StatusTooManyRequests:
		// The worker is saturated; honoring its Retry-After and
		// re-picking keeps the queue bound meaningful fleet-wide.
		c.throttled.Add(1)
		if err := sleepCtx(ctx, view.retryAfter); err != nil {
			return nil, dispatchDone, err
		}
		return nil, dispatchRetry, nil
	case status == http.StatusOK || status == http.StatusAccepted:
	default:
		return nil, dispatchDone, fmt.Errorf("service: worker %s rejected job: %s", owner, view.Error)
	}

	for view.Status != StateDone && view.Status != StateFailed {
		if err := ctx.Err(); err != nil {
			return nil, dispatchDone, err
		}
		next, status, err := c.pollJob(ctx, owner, view.ID)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil, dispatchDone, ctx.Err()
			}
			c.evict(owner, fmt.Sprintf("unreachable: %v", err))
			return nil, dispatchRetry, nil
		case status == http.StatusNotFound:
			// The worker restarted and lost the job (its job table is
			// in-memory). It is alive and answering, so re-dispatch —
			// possibly right back to it — without evicting.
			return nil, dispatchRetry, nil
		case status != http.StatusOK:
			return nil, dispatchDone, fmt.Errorf("service: worker %s: poll status %d", owner, status)
		}
		view = next
	}
	if view.Status == StateFailed {
		return nil, dispatchDone, fmt.Errorf("service: worker %s: %s", owner, view.Error)
	}
	if view.Result == nil {
		return nil, dispatchDone, fmt.Errorf("service: worker %s: done job without result", owner)
	}
	return view.Result, dispatchDone, nil
}

// remoteView is the slice of jobView the coordinator consumes, plus
// the Retry-After a 429 carried.
type remoteView struct {
	ID         string       `json:"id"`
	Status     string       `json:"status"`
	Error      string       `json:"error"`
	Result     *core.Result `json:"result"`
	retryAfter time.Duration
}

func (c *coordinator) postJob(ctx context.Context, owner string, spec JobSpec) (remoteView, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return remoteView{}, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return remoteView{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	// The trace ID crosses the dispatch hop in the same header clients
	// use, so the worker's spans land on the coordinator's timeline.
	if id := telemetry.TraceIDFrom(ctx); id != "" {
		req.Header.Set(telemetry.TraceIDHeader, id)
	}
	resp, err := fabricHTTP.Do(req)
	if err != nil {
		return remoteView{}, 0, err
	}
	defer resp.Body.Close()
	var view remoteView
	if resp.StatusCode == http.StatusTooManyRequests {
		ra := 1
		if v, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && v > 0 {
			ra = v
		}
		view.retryAfter = time.Duration(ra) * time.Second
		_, _ = io.Copy(io.Discard, resp.Body)
		return view, resp.StatusCode, nil
	}
	if err := json.NewDecoder(peerBody(resp)).Decode(&view); err != nil && resp.StatusCode < 400 {
		return remoteView{}, 0, fmt.Errorf("decode worker response: %w", err)
	}
	return view, resp.StatusCode, nil
}

func (c *coordinator) pollJob(ctx context.Context, owner, id string) (remoteView, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+"/v1/jobs/"+id+"?wait=5s", nil)
	if err != nil {
		return remoteView{}, 0, err
	}
	resp, err := fabricHTTP.Do(req)
	if err != nil {
		return remoteView{}, 0, err
	}
	defer resp.Body.Close()
	var view remoteView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(peerBody(resp)).Decode(&view); err != nil {
			return remoteView{}, 0, fmt.Errorf("decode worker poll: %w", err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return view, resp.StatusCode, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
