package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"clustersmt/internal/telemetry"
)

func scrapeMetrics(t *testing.T, ts *httptest.Server) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

// metricValue extracts the value of the first sample line whose name
// (plus optional label set) matches prefix exactly.
func metricValue(t *testing.T, exposition, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == prefix {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample %q in exposition", prefix)
	return 0
}

// TestMetricsEndpoint is the scrape contract: after one simulated job
// and one cached resubmission, /metrics serves OpenMetrics text with
// the job-path counters and latency histograms populated, counters
// are monotonic across scrapes, and the exposition ends with # EOF.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Options{})

	spec := JobSpec{App: "swim", Arch: "SMT4"}
	status, j, _ := submit(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", status)
	}
	j = waitJob(t, ts, j.ID)
	if j.Status != StateDone {
		t.Fatalf("job did not complete: %+v", j)
	}
	if status, _, _ := submit(t, ts, spec); status != http.StatusOK {
		t.Fatalf("cached resubmission: status %d, want 200", status)
	}

	body, resp := scrapeMetrics(t, ts)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != telemetry.ContentType {
		t.Fatalf("Content-Type = %q, want %q", got, telemetry.ContentType)
	}
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatal("exposition does not end with # EOF")
	}

	// Every instrumented family is declared; sample values reflect the
	// two submissions (one simulated, one memory cache hit).
	for _, name := range []string{
		"clusterd_jobs_accepted", "clusterd_jobs_completed",
		"clusterd_job_queue_wait_seconds", "clusterd_job_e2e_seconds",
		"clusterd_simulate_seconds", "clusterd_cache_write_seconds",
		"clusterd_cache_hits", "clusterd_queue_depth",
		"clusterd_uptime_seconds", "clusterd_build_info",
		"clusterd_trace_spans",
		"clusterd_alloc_migrations", "clusterd_alloc_epochs",
	} {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("missing # TYPE for %s", name)
		}
		if !strings.Contains(body, "# HELP "+name+" ") {
			t.Errorf("missing # HELP for %s", name)
		}
	}
	if v := metricValue(t, body, "clusterd_jobs_accepted_total"); v != 1 {
		t.Errorf("jobs_accepted_total = %v, want 1 (cache hits are not accepted jobs)", v)
	}
	if v := metricValue(t, body, "clusterd_jobs_completed_total"); v != 1 {
		t.Errorf("jobs_completed_total = %v, want 1", v)
	}
	if v := metricValue(t, body, `clusterd_cache_hits_total{tier="memory"}`); v != 1 {
		t.Errorf(`cache_hits_total{tier="memory"} = %v, want 1`, v)
	}
	if v := metricValue(t, body, "clusterd_simulations_total"); v != 1 {
		t.Errorf("simulations_total = %v, want 1", v)
	}
	// The simulate histogram is labeled by allocation policy; the
	// default configuration reads as the normalized "static".
	if v := metricValue(t, body, `clusterd_simulate_seconds_count{policy="static"}`); v != 1 {
		t.Errorf(`simulate_seconds_count{policy="static"} = %v, want 1`, v)
	}
	// The static placement never migrates and runs no epochs.
	if v := metricValue(t, body, "clusterd_alloc_migrations_total"); v != 0 {
		t.Errorf("alloc_migrations_total = %v, want 0 under static", v)
	}
	if v := metricValue(t, body, "clusterd_alloc_epochs_total"); v != 0 {
		t.Errorf("alloc_epochs_total = %v, want 0 under static", v)
	}
	if v := metricValue(t, body, "clusterd_job_e2e_seconds_count"); v != 2 {
		t.Errorf("job_e2e_seconds_count = %v, want 2 (simulated job + cache fast path)", v)
	}
	if v := metricValue(t, body, "clusterd_job_queue_wait_seconds_count"); v != 1 {
		t.Errorf("job_queue_wait_seconds_count = %v, want 1", v)
	}

	// Queue-wait and end-to-end quantiles are pinned: one observation
	// each, so every quantile collapses to that observation's bucket and
	// must be finite, positive, and ordered (wait <= e2e upper bound).
	for _, q := range []float64{0.5, 0.9, 0.99} {
		w, e := srv.tel.queueWait.Quantile(q), srv.tel.e2e.Quantile(q)
		if math.IsNaN(w) || w <= 0 || math.IsInf(w, 0) {
			t.Errorf("queue-wait q%v = %v, want finite positive", q, w)
		}
		if math.IsNaN(e) || e <= 0 || math.IsInf(e, 0) {
			t.Errorf("e2e q%v = %v, want finite positive", q, e)
		}
	}
	if srv.tel.queueWait.Quantile(1) > srv.tel.e2e.Quantile(1) {
		t.Errorf("queue-wait upper bound %v exceeds e2e upper bound %v",
			srv.tel.queueWait.Quantile(1), srv.tel.e2e.Quantile(1))
	}

	// Counters are monotonic across scrapes.
	body2, _ := scrapeMetrics(t, ts)
	for _, c := range []string{
		"clusterd_jobs_accepted_total", "clusterd_jobs_completed_total",
		"clusterd_simulations_total",
	} {
		if metricValue(t, body2, c) < metricValue(t, body, c) {
			t.Errorf("%s decreased across scrapes", c)
		}
	}
}

// TestMetricsFamilies pins the exported family set: after one job, the
// sorted # TYPE names of /metrics are exactly this list, so adding,
// renaming or dropping a family shows up here.
func TestMetricsFamilies(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	_, j, _ := submit(t, ts, JobSpec{App: "swim", Arch: "SMT4"})
	if j = waitJob(t, ts, j.ID); j.Status != StateDone {
		t.Fatalf("job did not complete: %+v", j)
	}
	body, _ := scrapeMetrics(t, ts)
	var got []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			got = append(got, strings.Fields(line)[2])
		}
	}
	slices.Sort(got)
	want := []string{
		"clusterd_alloc_epochs",
		"clusterd_alloc_migrations",
		"clusterd_build_info",
		"clusterd_cache_entries",
		"clusterd_cache_hits",
		"clusterd_cache_misses",
		"clusterd_cache_write_seconds",
		"clusterd_job_e2e_seconds",
		"clusterd_job_panics",
		"clusterd_job_queue_wait_seconds",
		"clusterd_jobs_accepted",
		"clusterd_jobs_completed",
		"clusterd_jobs_rejected",
		"clusterd_queue_capacity",
		"clusterd_queue_depth",
		"clusterd_queue_running",
		"clusterd_queue_workers",
		"clusterd_simulate_seconds",
		"clusterd_simulations",
		"clusterd_snapshot_fetch_seconds",
		"clusterd_trace_spans",
		"clusterd_trace_spans_dropped",
		"clusterd_uptime_seconds",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("metric families:\n got %d %v\nwant %d %v", len(got), got, len(want), want)
	}
}

// TestMetricsDisabled: with telemetry off, the observability endpoints
// 404 but the service API is untouched.
func TestMetricsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{DisableTelemetry: true})
	for _, path := range []string{"/metrics", "/v1/trace/abc123"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with telemetry off: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz with telemetry off: status %d", resp.StatusCode)
	}
}

// TestHealthzRuntimeContract pins the /healthz runtime block's shape:
// version, go toolchain, uptime, and CPU topology are always present.
func TestHealthzRuntimeContract(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status  string `json:"status"`
		Runtime struct {
			Version       string `json:"version"`
			Go            string `json:"go"`
			UptimeSeconds *int64 `json:"uptime_seconds"`
			GOMAXPROCS    int    `json:"gomaxprocs"`
			NumCPU        int    `json:"num_cpu"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	rt := h.Runtime
	if rt.Version == "" {
		t.Error("runtime.version is empty")
	}
	if !strings.HasPrefix(rt.Go, "go") {
		t.Errorf("runtime.go = %q, want a go version string", rt.Go)
	}
	if rt.UptimeSeconds == nil || *rt.UptimeSeconds < 0 {
		t.Errorf("runtime.uptime_seconds = %v, want >= 0", rt.UptimeSeconds)
	}
	if rt.GOMAXPROCS < 1 || rt.NumCPU < 1 {
		t.Errorf("runtime gomaxprocs=%d num_cpu=%d, want both >= 1", rt.GOMAXPROCS, rt.NumCPU)
	}
}

// TestTelemetryDifferential is telemetry's row in the differential
// matrix: the same spec through a telemetry-on and a telemetry-off
// daemon yields bit-identical result JSON — instrumentation observes
// the job path, never steers it.
func TestTelemetryDifferential(t *testing.T) {
	_, tsOn := newTestServer(t, Options{})
	_, tsOff := newTestServer(t, Options{DisableTelemetry: true})

	for _, spec := range []JobSpec{
		{App: "mgrid", Arch: "SMT4"},
		{App: "swim", Arch: "FA8", HighEnd: true},
	} {
		_, jOn, _ := submit(t, tsOn, spec)
		_, jOff, _ := submit(t, tsOff, spec)
		jOn, jOff = waitJob(t, tsOn, jOn.ID), waitJob(t, tsOff, jOff.ID)
		if jOn.Status != StateDone || jOff.Status != StateDone {
			t.Fatalf("%s: on=%s off=%s, want both done", spec.App, jOn.Status, jOff.Status)
		}
		if !bytes.Equal(jOn.Result, jOff.Result) {
			t.Errorf("%s on %s: result differs between telemetry on and off", spec.App, spec.Arch)
		}
	}
}

// traceSpansDoc mirrors handleTrace's ?format=spans response.
type traceSpansDoc struct {
	TraceID string           `json:"trace_id"`
	Spans   []telemetry.Span `json:"spans"`
}

func getTraceSpans(t *testing.T, baseURL, id string) (traceSpansDoc, int) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/trace/" + id + "?format=spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc traceSpansDoc
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("decode trace spans: %v", err)
		}
	}
	return doc, resp.StatusCode
}

func spanNames(spans []telemetry.Span) map[string]int {
	names := make(map[string]int)
	for _, s := range spans {
		names[s.Name]++
	}
	return names
}

// TestTraceSingleNode: a caller-supplied X-Trace-Id rides the job
// through submit, queue, simulate and cache-write, and the trace
// endpoint serves both the raw span view and a valid Chrome trace.
func TestTraceSingleNode(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	const traceID = "svc-trace-test_0001"
	body, _ := json.Marshal(JobSpec{App: "tomcatv", Arch: "SMT2"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.TraceIDHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var j wireJob
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.TraceIDHeader); got != traceID {
		t.Fatalf("submit echoed trace ID %q, want %q", got, traceID)
	}
	if j = waitJob(t, ts, j.ID); j.Status != StateDone {
		t.Fatalf("job did not complete: %+v", j)
	}

	doc, status := getTraceSpans(t, ts.URL, traceID)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: status %d", traceID, status)
	}
	if doc.TraceID != traceID {
		t.Fatalf("trace doc ID = %q, want %q", doc.TraceID, traceID)
	}
	names := spanNames(doc.Spans)
	for _, want := range []string{"submit", "queue", "simulate", "cache-write"} {
		if names[want] == 0 {
			t.Errorf("trace is missing a %q span (have %v)", want, names)
		}
	}
	for _, s := range doc.Spans {
		if s.Node != spanNode {
			t.Errorf("span %s on node %q, want %q", s.Name, s.Node, spanNode)
		}
		if s.TraceID != traceID {
			t.Errorf("span %s carries trace %q", s.Name, s.TraceID)
		}
	}

	// Default format is Chrome trace JSON: one process metadata record
	// plus one complete event per span, parseable as a JSON array.
	chromeResp, err := http.Get(ts.URL + "/v1/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	chrome, err := io.ReadAll(chromeResp.Body)
	chromeResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(chrome, &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	var meta, complete int
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
		}
	}
	if meta != 1 {
		t.Errorf("%d process_name records, want 1 (one process)", meta)
	}
	if complete != len(doc.Spans) {
		t.Errorf("%d complete events, want %d", complete, len(doc.Spans))
	}

	// Malformed and unknown IDs fail loudly.
	if _, status := getTraceSpans(t, ts.URL, "no%20good"); status != http.StatusBadRequest {
		t.Errorf("invalid trace ID: status %d, want 400", status)
	}
	if _, status := getTraceSpans(t, ts.URL, "never-submitted"); status != http.StatusNotFound {
		t.Errorf("unknown trace ID: status %d, want 404", status)
	}
}
