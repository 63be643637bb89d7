// Service-side telemetry wiring: one telemetry.Registry per Server
// exposing the whole job path as OpenMetrics at GET /metrics, one
// bounded span ring behind GET /v1/trace/{id}, rendered as a Chrome
// trace_event timeline.
//
// Metric families mirror state the server already maintains wherever
// possible (func-backed collectors over the pool, cache and suite
// counters) so a scrape reads live values with no double
// bookkeeping; only the latency histograms are new state. Everything
// here is read-only with respect to results — TestTelemetryDifferential
// pins that simulation output is bit-identical with telemetry on or
// off.
package service

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"clustersmt/internal/telemetry"
)

// svcTelemetry holds the Server's registry, span ring, and the
// materialized latency histograms. A nil *svcTelemetry (telemetry
// disabled) is valid: every method nil-guards, so call sites stay
// unconditional.
type svcTelemetry struct {
	reg   *telemetry.Registry
	spans *telemetry.SpanRing

	queueWait  *telemetry.Histogram
	e2e        *telemetry.Histogram
	simulate   *telemetry.Histogram
	cacheWrite *telemetry.Histogram
}

// newSvcTelemetry builds the registry for one server.
func newSvcTelemetry(s *Server) *svcTelemetry {
	r := telemetry.NewRegistry()
	t := &svcTelemetry{
		reg:   r,
		spans: telemetry.NewSpanRing(0),

		queueWait: r.Histogram("clusterd_job_queue_wait_seconds",
			"Time jobs spend admitted but not yet running.", telemetry.DefaultLatencyBuckets),
		e2e: r.Histogram("clusterd_job_e2e_seconds",
			"End-to-end job latency, submission to terminal state.", telemetry.DefaultLatencyBuckets),
		// Every single-program run is at the seed placement; the label
		// stays so existing scrapers' selectors (policy="static") match.
		simulate: r.Histogram("clusterd_simulate_seconds",
			"Wall time of local simulations (singleflight owners only).",
			telemetry.DefaultLatencyBuckets, "policy", "static"),
		cacheWrite: r.Histogram("clusterd_cache_write_seconds",
			"Time to fill the result cache after a fresh simulation.", telemetry.DefaultLatencyBuckets),
	}

	r.CollectFunc("clusterd_build_info", "Build version as a label; value is always 1.",
		telemetry.TypeGauge, []string{"version"},
		func(emit func([]string, float64)) { emit([]string{s.version}, 1) })
	r.GaugeFunc("clusterd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })

	r.CounterFunc("clusterd_jobs_accepted", "Jobs admitted to the queue.",
		func() float64 { a, _, _ := s.pool.Counters(); return float64(a) })
	r.CounterFunc("clusterd_jobs_rejected", "Jobs rejected with 429 (queue full or draining).",
		func() float64 { _, rej, _ := s.pool.Counters(); return float64(rej) })
	r.CounterFunc("clusterd_jobs_completed", "Jobs that reached a terminal state through the pool.",
		func() float64 { _, _, c := s.pool.Counters(); return float64(c) })
	r.CounterFunc("clusterd_job_panics", "Jobs failed by a panic in their run (value and stack on the job's trace).",
		func() float64 { return float64(s.jobPanics.Load()) })
	r.GaugeFunc("clusterd_queue_depth", "Jobs admitted, not yet picked up by a worker.",
		func() float64 { return float64(s.pool.Depth()) })
	r.GaugeFunc("clusterd_queue_running", "Jobs currently executing.",
		func() float64 { return float64(s.pool.Running()) })
	r.GaugeFunc("clusterd_queue_capacity", "Admission FIFO bound.",
		func() float64 { return float64(s.pool.Cap()) })
	r.GaugeFunc("clusterd_queue_workers", "Pool worker count.",
		func() float64 { return float64(s.pool.Workers()) })

	r.CollectFunc("clusterd_cache_hits", "Result cache hits by tier.",
		telemetry.TypeCounter, []string{"tier"},
		func(emit func([]string, float64)) {
			st := s.cache.Stats()
			emit([]string{TierMemory}, float64(st.Hits))
			emit([]string{TierDisk}, float64(st.DiskHits))
		})
	r.CounterFunc("clusterd_cache_misses", "Result cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.GaugeFunc("clusterd_cache_entries", "Entries resident in the memory LRU.",
		func() float64 { return float64(s.cache.Stats().Entries) })

	r.CounterFunc("clusterd_simulations", "Simulations actually executed on this node.",
		func() float64 { return float64(s.suite.Simulations()) })

	r.GaugeFunc("clusterd_trace_spans", "Spans retained in the trace ring.",
		func() float64 { return float64(t.spans.Len()) })
	r.CounterFunc("clusterd_trace_spans_dropped", "Spans overwritten by ring wraparound.",
		func() float64 { return float64(t.spans.Dropped()) })
	return t
}

// spanProcess names the one process a trace timeline shows.
const spanProcess = "clusterd"

// span records one completed span on the ring. Safe (and a no-op) with
// telemetry disabled or without a trace ID.
func (s *Server) span(traceID, name string, start time.Time, attrs map[string]string) {
	if s.tel == nil || traceID == "" {
		return
	}
	s.tel.spans.Record(telemetry.Span{
		TraceID: traceID,
		Name:    name,
		StartUS: start.UnixMicro(),
		DurUS:   time.Since(start).Microseconds(),
		Attrs:   attrs,
	})
}

// observe is the nil-guarded histogram record.
func observe(h *telemetry.Histogram, d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// hist returns the named histogram, nil when telemetry is off — pair
// with observe.
func (s *Server) hist(pick func(*svcTelemetry) *telemetry.Histogram) *telemetry.Histogram {
	if s.tel == nil {
		return nil
	}
	return pick(s.tel)
}

// traceIDForRequest resolves the trace ID for a submission: a valid
// client-supplied X-Trace-Id is honored, anything else gets a fresh
// ID.
func traceIDForRequest(r *http.Request) string {
	if id := r.Header.Get(telemetry.TraceIDHeader); telemetry.ValidTraceID(id) {
		return id
	}
	return telemetry.NewTraceID()
}

func (s *Server) handleMetricsScrape(w http.ResponseWriter, r *http.Request) {
	if s.tel == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: telemetry disabled"))
		return
	}
	s.tel.reg.Handler().ServeHTTP(w, r)
}

// traceSpansView is the wire form of a trace's spans — what
// ?format=spans returns.
type traceSpansView struct {
	TraceID string           `json:"trace_id"`
	Spans   []telemetry.Span `json:"spans"`
}

// handleTrace serves GET /v1/trace/{id}: the spans retained for the
// trace, rendered as Chrome trace_event JSON (or raw spans with
// ?format=spans). ?scope=local is accepted and ignored: every span is
// local.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tel == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: telemetry disabled"))
		return
	}
	id := r.PathValue("id")
	if !telemetry.ValidTraceID(id) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad trace id %q", id))
		return
	}
	spans := s.tel.spans.ByTrace(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no spans retained for trace %s", id))
		return
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	if r.URL.Query().Get("format") == "spans" {
		writeJSON(w, http.StatusOK, traceSpansView{TraceID: id, Spans: spans})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = telemetry.WriteChromeTrace(w, spanProcess, spans)
}

// runtimeInfo is the /healthz "runtime" block: build identity and host
// shape in one place, replacing per-handler version plumbing.
func (s *Server) runtimeInfo() map[string]any {
	return map[string]any{
		"version":        s.version,
		"go":             runtime.Version(),
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"num_cpu":        runtime.NumCPU(),
	}
}
