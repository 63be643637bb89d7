package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/harness"
	"clustersmt/internal/telemetry"
	"clustersmt/internal/version"
	"clustersmt/internal/workloads"
)

// Options configures a Server. Zero values mean: test-size default,
// GOMAXPROCS workers, DefaultQueueCap queue, DefaultCacheEntries LRU,
// memory-only cache, core-default cycle bound, metrics off.
type Options struct {
	// DefaultSize is the input size used when a job or figure request
	// does not name one.
	DefaultSize workloads.Size
	// Workers bounds concurrent simulations (0 = GOMAXPROCS): every
	// simulation the daemon runs, for jobs and figures alike and at
	// every input size, holds one of these slots. An oracle search holds
	// one slot while core.SearchStatic scores its candidates on up to
	// GOMAXPROCS goroutines.
	Workers int
	// QueueCap bounds the admission FIFO (0 = DefaultQueueCap). A full
	// queue rejects submissions with 429 + Retry-After.
	QueueCap int
	// CacheEntries bounds the in-memory result LRU (0 = default).
	CacheEntries int
	// CacheDir, when non-empty, enables the persistent result store:
	// one append-only log, <CacheDir>/results.log, that one daemon at a
	// time may hold.
	CacheDir string
	// MaxCycles bounds each simulation (0 = core default).
	MaxCycles int64
	// WarmupCycles > 0 enables checkpoint-based warm-up sharing
	// (harness.Suite.WarmupCycles): workloads declaring a shared
	// prefix are forked from one warmed parent per (machine, prefix)
	// instead of simulated from cycle zero. Warmed parents live in
	// process only: CacheDir's log holds results, so a restarted daemon
	// serves every earlier result from disk and re-warms once per
	// (machine, prefix) for new variants.
	WarmupCycles int64
	// AllocPolicy selects the thread-to-cluster allocation policy for
	// every simulation this server runs ("" or "static" = the seed
	// placement; see internal/alloc). It is part of the machine's
	// canonical encoding, so results cached under one policy are never
	// served for another. AllocEpoch is the dynamic policies' rebalance
	// interval in cycles (0 = config.DefaultAllocEpoch).
	AllocPolicy string
	AllocEpoch  int64
	// MetricsInterval > 0 samples interval metrics on every simulation,
	// served by GET /v1/metrics/{run}.
	MetricsInterval int64
	// DisableTelemetry turns off the metrics registry and span ring:
	// /metrics and /v1/trace return 404 and every record call is a
	// no-op. Simulation results are bit-identical either way
	// (TestTelemetryDifferential).
	DisableTelemetry bool
}

// Server is the serving subsystem: job queue + worker pool + two-tier
// result cache + figure/metrics endpoints over one harness suite, whose
// memo, simulation slots and counters serve every input size
// (harness.Suite.At). The cache backs it: every result the suite
// simulates, for a job or a figure cell, is written to it once, and
// every figure cell is looked up in it first.
type Server struct {
	opts  Options
	cache *Cache
	pool  *Pool
	suite *harness.Suite

	// The job table: every queued or running job, plus the most recent
	// maxFinishedJobs terminal ones (finished, oldest first). order
	// lists what is retained in admission order.
	jobsMu   sync.Mutex
	jobs     map[string]*Job
	order    []string
	finished []string
	seq      atomic.Uint64

	version string

	// tel is the telemetry state (registry + span ring); nil when
	// Options.DisableTelemetry — every record path nil-guards.
	tel *svcTelemetry

	jobPanics atomic.Uint64 // jobs failed by a panic in their run

	started time.Time
	closed  atomic.Bool
}

// New builds a Server (workers started, cache loaded) ready for
// Handler to be mounted.
func New(opts Options) (*Server, error) {
	cache, err := NewCache(opts.CacheEntries, opts.CacheDir)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		opts:    opts,
		cache:   cache,
		jobs:    make(map[string]*Job),
		version: version.String(),
		started: time.Now(),
	}
	s.pool = NewPool(workers, opts.QueueCap, s.runJob)
	if !opts.DisableTelemetry {
		s.tel = newSvcTelemetry(s)
	}
	// The daemon's one suite: its singleflight memo shares identical
	// simulations already in flight even before the result lands in the
	// service cache, at every size (harness.Suite.At).
	st := harness.NewSuite(opts.DefaultSize)
	st.MaxCycles = opts.MaxCycles
	st.AllocPolicy = opts.AllocPolicy
	st.AllocEpoch = opts.AllocEpoch
	st.MetricsInterval = opts.MetricsInterval
	st.WarmupCycles = opts.WarmupCycles
	st.Store = s.store
	if s.tel != nil {
		// Hook fires on singleflight owners only, so the histogram
		// measures true simulation time — never a cache lookup.
		st.OnSimulate = func(ctx context.Context, app, machine string, highEnd bool, d time.Duration, err error) {
			observe(s.tel.simulate, d)
			attrs := map[string]string{"app": app, "machine": machine, "policy": s.tel.policy}
			if err != nil {
				attrs["error"] = err.Error()
			}
			s.span(telemetry.TraceIDFrom(ctx), "simulate", time.Now().Add(-d), attrs)
		}
	}
	// Workers bounds every simulation the daemon runs: jobs arrive one
	// per pool worker, but a figure request fans its cells out inside
	// the suite, so the suite's own slots, shared by every size, carry
	// the bound.
	st.SetParallelism(s.pool.Workers())
	s.suite = st
	return s, nil
}

// resolve is JobSpec.Resolve for a job this server will run: the
// machine carries the server's allocation policy, as the suite's does,
// so results cached under one policy are never served for another (the
// static policy normalizes to nothing and leaves the key as it was).
func (s *Server) resolve(spec JobSpec) (*ResolvedJob, error) {
	rj, err := spec.Resolve(s.opts.DefaultSize)
	if err != nil {
		return nil, err
	}
	rj.Machine.Alloc = config.AllocConfig{Policy: s.opts.AllocPolicy, Epoch: s.opts.AllocEpoch}
	return rj, nil
}

// jobKey is the context key under which runJob hands its job to the
// suite's Store hook. The job has just looked its hash up in the cache,
// so the hook does not look again.
type jobKey struct{}

// store is the suite's Store hook: the one place results enter the
// cache. A run for a job is keyed by the job's hash; any other (a
// figure cell) is resolved to the spec a job for it would carry, so it
// shares that job's entry, and is looked up first. On a miss the hook
// simulates and writes the result to both tiers once, observing the
// write on the owning job's trace.
func (s *Server) store(ctx context.Context, app string, arch config.Arch, highEnd bool, size workloads.Size, simulate func() (*core.Result, error)) (*core.Result, error) {
	var key [32]byte
	var spec JobSpec
	if j, ok := ctx.Value(jobKey{}).(*Job); ok {
		key, spec = j.Hash, j.Rj.Spec
	} else {
		rj, err := s.resolve(JobSpec{App: app, Arch: arch.Name, HighEnd: highEnd, Size: size.String()})
		if err != nil {
			// A name jobs cannot spell has no key; let the harness
			// produce the authoritative error.
			return simulate()
		}
		key, spec = rj.Hash(), rj.Spec
		if res, _, ok := s.cache.Get(key); ok {
			return res, nil
		}
	}
	res, err := simulate()
	if err != nil {
		return nil, err
	}
	// A failed disk write degrades this entry to memory-only, counted
	// in the cache's disk_errors; the result itself is still good.
	start := time.Now()
	_ = s.cache.Put(key, spec, res)
	observe(s.hist(func(t *svcTelemetry) *telemetry.Histogram { return t.cacheWrite }), time.Since(start))
	s.span(telemetry.TraceIDFrom(ctx), "cache-write", start, nil)
	return res, nil
}

// runJob executes one admitted job: cache check (a concurrent earlier
// submission may have completed while this one sat in the queue), then
// a context-aware suite run, whose Store hook fills the cache. Queue
// wait and end-to-end latency are observed here; the trace ID rides the
// context into the suite so simulate and cache-write spans attribute to
// this job.
func (s *Server) runJob(ctx context.Context, j *Job) {
	wait := time.Since(j.submittedAt())
	observe(s.hist(func(t *svcTelemetry) *telemetry.Histogram { return t.queueWait }), wait)
	s.span(j.TraceID, "queue", j.submittedAt(), map[string]string{"job": j.ID})
	ctx = context.WithValue(telemetry.WithTraceID(ctx, j.TraceID), jobKey{}, j)

	if res, tier, ok := s.cache.Get(j.Hash); ok {
		s.jobDone(j)
		j.Complete(res, tier)
		return
	}
	rj := j.Rj
	start := time.Now()
	res, err := s.suite.At(rj.Size).RunContext(ctx, rj.Workload, rj.Arch, rj.Spec.HighEnd)
	if err != nil {
		if harness.IsPanic(err) {
			s.jobPanics.Add(1)
			s.span(j.TraceID, "panic", start, map[string]string{"job": j.ID, "panic": panicText(err)})
		}
		s.jobDone(j)
		j.Fail(err)
		return
	}
	s.jobDone(j)
	j.Complete(res, "")
}

// maxPanicStack bounds the stack a panicked job's trace span carries.
const maxPanicStack = 4 << 10

// panicText is a panicked run's error as its trace span records it: the
// panic value whole, the stack after it cut to maxPanicStack bytes.
func panicText(err error) string {
	msg := err.Error()
	if i := strings.Index(msg, "\n\n"); i >= 0 && len(msg) > i+2+maxPanicStack {
		return msg[:i+2+maxPanicStack]
	}
	return msg
}

// maxFinishedJobs bounds how many terminal jobs the table retains. A
// job's result lives on in the cache; the table only has to outlast
// the submitter's poll, and a long-lived daemon must not grow with
// every job it has ever served.
const maxFinishedJobs = 1024

// jobDone records a finishing job's end-to-end latency and files it
// under the finished jobs, evicting the one that finished longest ago
// once more than maxFinishedJobs are held. An evicted ID answers 404
// like one never issued. Queued and running jobs are never evicted.
// runJob calls it just before the terminal transition, so a client
// that sees the job done finds its latency already in the histogram.
func (s *Server) jobDone(j *Job) {
	observe(s.hist(func(t *svcTelemetry) *telemetry.Histogram { return t.e2e }), time.Since(j.submittedAt()))
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.finished = append(s.finished, j.ID)
	if len(s.finished) <= maxFinishedJobs {
		return
	}
	old := s.finished[0]
	s.finished = s.finished[1:]
	delete(s.jobs, old)
	if i := slices.Index(s.order, old); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1)
	}
}

// Close drains the pool (bounded by ctx — expired deadlines cancel
// in-flight simulations), then closes the cache's log. It is the
// graceful-shutdown path behind clusterd's signal handler.
func (s *Server) Close(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	s.pool.Drain(ctx)
	return s.cache.Close()
}

// Handler returns the HTTP API:
//
//	POST /v1/jobs            submit a simulation {app, arch, high_end, size}
//	GET  /v1/jobs            list jobs
//	GET  /v1/jobs/{id}       job status/result (?wait=10s long-polls)
//	GET  /v1/figures/{n}     paper figure 4/5/7/8 (?size=, ?format=text)
//	GET  /v1/metrics         list finished runs with retained interval metrics
//	GET  /v1/metrics/{run}   one run's frames (?format=csv|json)
//	GET  /v1/trace/{id}      one job's span timeline (?format=spans)
//	GET  /metrics            OpenMetrics scrape (404 when disabled)
//	GET  /healthz            liveness + queue/cache stats
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/figures/{n}", s.handleFigure)
	mux.HandleFunc("GET /v1/metrics", s.handleListMetrics)
	mux.HandleFunc("GET /v1/metrics/{run...}", s.handleMetrics)
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetricsScrape)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// jobView is the wire form of a Job.
type jobView struct {
	ID        string       `json:"id"`
	Spec      JobSpec      `json:"spec"`
	Hash      string       `json:"hash"`
	TraceID   string       `json:"trace_id,omitempty"`
	Status    string       `json:"status"`
	CacheHit  bool         `json:"cache_hit"`
	CacheTier string       `json:"cache_tier,omitempty"`
	Error     string       `json:"error,omitempty"`
	Result    *core.Result `json:"result,omitempty"`
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobView{
		ID:        j.ID,
		Spec:      j.Rj.Spec,
		Hash:      j.Rj.HashHex(),
		TraceID:   j.TraceID,
		Status:    j.state,
		CacheHit:  j.cacheHit,
		CacheTier: j.cacheTier,
		Error:     j.errMsg,
		Result:    j.res,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxRequestBodyBytes bounds a POST body. Job specs are a few hundred
// bytes of JSON; anything near the bound is hostile or broken and is
// answered 413 without being held.
const maxRequestBodyBytes = 1 << 20

// decodeBody decodes a bounded JSON request body, one object and
// nothing but whitespace after it, into v. On failure it returns the
// status to answer with: 413 past the bound, 400 otherwise.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	if err == nil {
		// Decode stops after the first value; a second one or stray
		// bytes would otherwise be dropped unread.
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if !errors.As(err, &tooBig) {
			err = errors.New("data after the JSON object")
		}
	}
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, err
	case err != nil:
		return http.StatusBadRequest, err
	}
	return http.StatusOK, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	var spec JobSpec
	if status, err := decodeBody(w, r, &spec); err != nil {
		writeError(w, status, fmt.Errorf("service: bad job spec: %w", err))
		return
	}
	rj, err := s.resolve(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j := NewJob(fmt.Sprintf("j%d", s.seq.Add(1)), rj)
	j.ID = fmt.Sprintf("%s-%x", j.ID, j.Hash[:4])
	j.TraceID = traceIDForRequest(r)
	w.Header().Set(telemetry.TraceIDHeader, j.TraceID)

	// Content-addressed fast path: an identical submission whose result
	// is already cached is served immediately — it never occupies a
	// queue slot, so cached traffic cannot be 429'd by a full queue.
	if res, tier, ok := s.cache.Get(j.Hash); ok {
		j.Complete(res, tier)
		s.rememberJob(j)
		s.span(j.TraceID, "submit", arrived, map[string]string{"job": j.ID, "outcome": "cache-" + tier})
		s.jobDone(j)
		writeJSON(w, http.StatusOK, j.view())
		return
	}

	if err := s.admitJob(j); err != nil {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		s.span(j.TraceID, "submit", arrived, map[string]string{"job": j.ID, "outcome": "rejected"})
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	s.span(j.TraceID, "submit", arrived, map[string]string{"job": j.ID, "outcome": "queued"})
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.view())
}

// retryAfter estimates (in whole seconds, floor 1, cap 60) when a
// queue slot may free up: pending work divided by worker parallelism,
// assuming roughly a second per simulation — deliberately coarse, the
// point is to pace retries, not to promise. The division rounds up (a
// partly filled worker wave is still a full wave of waiting) and
// guards a zero worker count: NewPool clamps workers to one, but a
// 429 path must never be able to panic on arithmetic.
func (s *Server) retryAfter() int {
	w := s.pool.Workers()
	if w < 1 {
		w = 1
	}
	n := (s.pool.Depth() + s.pool.Running() + w - 1) / w
	if n < 1 {
		n = 1
	}
	if n > 60 {
		n = 60
	}
	return n
}

// rememberJob enters an already terminal job (a cache hit) in the table.
func (s *Server) rememberJob(j *Job) {
	s.jobsMu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.jobsMu.Unlock()
}

// admitJob queues j on the pool and enters it in the job table; a job
// the pool refuses is not entered. Pool.Submit never blocks, and it
// runs under the table lock so that a job a worker finishes at once
// cannot reach jobDone before it is in the table.
func (s *Server) admitJob(j *Job) error {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if err := s.pool.Submit(j); err != nil {
		return err
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	return nil
}

func (s *Server) lookupJob(id string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad wait %q: %w", waitStr, err))
			return
		}
		// Stopped on return: under go 1.22 timer rules an unstopped
		// timer outlives a long-poll that ends early until it fires.
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-j.Done():
		case <-timer.C:
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.jobsMu.Lock()
	views := make([]jobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.jobsMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// sizeParam resolves the ?size= query (default: server default).
func (s *Server) sizeParam(r *http.Request) (workloads.Size, error) {
	if name := r.URL.Query().Get("size"); name != "" {
		return workloads.ParseSize(name)
	}
	return s.opts.DefaultSize, nil
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad figure number %q", r.PathValue("n")))
		return
	}
	size, err := s.sizeParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Figure matrices run synchronously under the request context:
	// client disconnect cancels the in-flight simulations (the suite
	// singleflight hands unfinished runs off to any surviving caller).
	fig, err := s.suite.At(size).Figure(r.Context(), n)
	if err != nil {
		if r.Context().Err() != nil {
			return // client went away; nothing to write
		}
		status := http.StatusInternalServerError
		if n != 4 && n != 5 && n != 7 && n != 8 {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, fig.Render())
		return
	}
	writeJSON(w, http.StatusOK, fig)
}

func (s *Server) handleListMetrics(w http.ResponseWriter, r *http.Request) {
	size, err := s.sizeParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"metrics_enabled": s.opts.MetricsInterval > 0,
		"runs":            s.suite.At(size).MetricsRuns(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	size, err := s.sizeParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	run := r.PathValue("run")
	ring := s.suite.At(size).Metrics(run)
	if ring == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no metrics retained for %q (is -metrics-interval set?)", run))
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = ring.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	_ = ring.WriteCSV(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	accepted, rejected, completed := s.pool.Counters()
	warmForks, _ := s.suite.WarmForks()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"runtime":     s.runtimeInfo(),
		"simulations": s.suite.Simulations(),
		"queue": map[string]any{
			"depth":     s.pool.Depth(),
			"capacity":  s.pool.Cap(),
			"running":   s.pool.Running(),
			"workers":   s.pool.Workers(),
			"accepted":  accepted,
			"rejected":  rejected,
			"completed": completed,
		},
		"cache": s.cache.Stats(),
		"warmup": map[string]any{
			"enabled": s.opts.WarmupCycles > 0,
			"cycles":  s.opts.WarmupCycles,
			"forks":   warmForks,
		},
	})
}
