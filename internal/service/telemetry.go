// Service-side telemetry wiring: one fixed list of metric families
// per Server, rendered by telemetry.WriteOpenMetrics as OpenMetrics at
// GET /metrics, and one bounded span ring behind GET /v1/trace/{id},
// rendered as a Chrome trace_event timeline.
//
// Counter and gauge families read state the server already maintains
// (the pool, cache and suite counters) at scrape time, so there is no
// double bookkeeping; only the latency histograms are new state.
// Everything here is read-only with respect to results —
// TestTelemetryDifferential pins that simulation output is
// bit-identical with telemetry on or off.
package service

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"clustersmt/internal/telemetry"
)

// svcTelemetry holds the Server's metric families, span ring, and the
// latency histograms the job path observes. It is nil with telemetry
// disabled: Server.span nil-guards, and every histogram call site
// checks Server.tel first.
type svcTelemetry struct {
	families []telemetry.Family
	spans    *telemetry.SpanRing

	queueWait  *telemetry.Histogram
	e2e        *telemetry.Histogram
	simulate   *telemetry.Histogram
	cacheWrite *telemetry.Histogram
}

// newSvcTelemetry builds the family list for one server, in name order
// (the exposition's order).
func newSvcTelemetry(s *Server) *svcTelemetry {
	t := &svcTelemetry{
		spans:      telemetry.NewSpanRing(0),
		queueWait:  telemetry.NewHistogram(telemetry.DefaultLatencyBuckets),
		e2e:        telemetry.NewHistogram(telemetry.DefaultLatencyBuckets),
		simulate:   telemetry.NewHistogram(telemetry.DefaultLatencyBuckets),
		cacheWrite: telemetry.NewHistogram(telemetry.DefaultLatencyBuckets),
	}
	t.families = []telemetry.Family{
		{Name: "clusterd_build_info", Help: "Build version as a label; value is always 1.",
			Type: "gauge", Labels: []string{"version"},
			Collect: func(emit telemetry.Emit) { emit(1, s.version) }},
		{Name: "clusterd_cache_entries", Help: "Entries resident in the memory LRU.", Type: "gauge",
			Collect: func(emit telemetry.Emit) { emit(float64(s.cache.Stats().Entries)) }},
		{Name: "clusterd_cache_hits", Help: "Result cache hits by tier.", Type: "counter", Labels: []string{"tier"},
			Collect: func(emit telemetry.Emit) {
				st := s.cache.Stats()
				emit(float64(st.Hits), TierMemory)
				emit(float64(st.DiskHits), TierDisk)
			}},
		{Name: "clusterd_cache_misses", Help: "Result cache misses.", Type: "counter",
			Collect: func(emit telemetry.Emit) { emit(float64(s.cache.Stats().Misses)) }},
		{Name: "clusterd_cache_write_seconds", Help: "Time to fill the result cache after a fresh simulation.",
			Type: "histogram", Hist: t.cacheWrite},
		{Name: "clusterd_job_e2e_seconds", Help: "End-to-end job latency, submission to terminal state.",
			Type: "histogram", Hist: t.e2e},
		{Name: "clusterd_job_panics", Help: "Jobs failed by a panic in their run (value and stack on the job's trace).",
			Type: "counter", Collect: func(emit telemetry.Emit) { emit(float64(s.jobPanics.Load())) }},
		{Name: "clusterd_job_queue_wait_seconds", Help: "Time jobs spend admitted but not yet running.",
			Type: "histogram", Hist: t.queueWait},
		{Name: "clusterd_jobs_accepted", Help: "Jobs admitted to the queue.", Type: "counter",
			Collect: func(emit telemetry.Emit) { a, _, _ := s.pool.Counters(); emit(float64(a)) }},
		{Name: "clusterd_jobs_completed", Help: "Jobs that reached a terminal state through the pool.", Type: "counter",
			Collect: func(emit telemetry.Emit) { _, _, c := s.pool.Counters(); emit(float64(c)) }},
		{Name: "clusterd_jobs_rejected", Help: "Jobs rejected with 429 (queue full or draining).", Type: "counter",
			Collect: func(emit telemetry.Emit) { _, rej, _ := s.pool.Counters(); emit(float64(rej)) }},
		{Name: "clusterd_queue_capacity", Help: "Admission FIFO bound.", Type: "gauge",
			Collect: func(emit telemetry.Emit) { emit(float64(s.pool.Cap())) }},
		{Name: "clusterd_queue_depth", Help: "Jobs admitted, not yet picked up by a worker.", Type: "gauge",
			Collect: func(emit telemetry.Emit) { emit(float64(s.pool.Depth())) }},
		{Name: "clusterd_queue_running", Help: "Jobs currently executing.", Type: "gauge",
			Collect: func(emit telemetry.Emit) { emit(float64(s.pool.Running())) }},
		{Name: "clusterd_queue_workers", Help: "Pool worker count.", Type: "gauge",
			Collect: func(emit telemetry.Emit) { emit(float64(s.pool.Workers())) }},
		// Every single-program run is at the seed placement; the label
		// stays so existing scrapers' selectors (policy="static") match.
		{Name: "clusterd_simulate_seconds", Help: "Wall time of local simulations (singleflight owners only).",
			Type: "histogram", Labels: []string{"policy"}, LabelValues: []string{"static"}, Hist: t.simulate},
		{Name: "clusterd_simulations", Help: "Simulations actually executed on this node.", Type: "counter",
			Collect: func(emit telemetry.Emit) { emit(float64(s.suite.Simulations())) }},
		{Name: "clusterd_trace_spans", Help: "Spans retained in the trace ring.", Type: "gauge",
			Collect: func(emit telemetry.Emit) { emit(float64(t.spans.Len())) }},
		{Name: "clusterd_trace_spans_dropped", Help: "Spans overwritten by ring wraparound.", Type: "counter",
			Collect: func(emit telemetry.Emit) { emit(float64(t.spans.Dropped())) }},
		{Name: "clusterd_uptime_seconds", Help: "Seconds since the server started.", Type: "gauge",
			Collect: func(emit telemetry.Emit) { emit(time.Since(s.started).Seconds()) }},
	}
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
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = telemetry.WriteOpenMetrics(w, s.tel.families)
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
