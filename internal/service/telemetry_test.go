package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

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

// TestWorkersBoundFigureCells: Options.Workers bounds every simulation
// the daemon runs, figure cells included, not only queued jobs. With one
// worker the cells of a figure run one at a time, so the simulate time
// they add up to cannot exceed the request's wall clock; with the
// suite left at GOMAXPROCS slots they overlap and it does.
func TestWorkersBoundFigureCells(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, ts := newTestServer(t, Options{Workers: 1})
	t0 := time.Now()
	getBody(t, ts.URL+"/v1/figures/4?size=test")
	wall := time.Since(t0).Seconds()
	body, _ := scrapeMetrics(t, ts)
	if sum := metricValue(t, body, `clusterd_simulate_seconds_sum{policy="static"}`); sum > wall {
		t.Fatalf("one worker: figure cells simulated for %.3fs within %.3fs of wall clock", sum, wall)
	}
}

// TestWorkersBoundAcrossSizes: the Workers bound holds across input
// sizes, which share one suite's simulation slots. With one worker, a
// test-size and a ref-size Figure 4 requested together still simulate
// one cell at a time, so their summed simulate time cannot exceed the
// wall clock of the pair.
func TestWorkersBoundAcrossSizes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, ts := newTestServer(t, Options{Workers: 1})
	t0 := time.Now()
	errs := make(chan error, 2)
	for _, size := range []string{"test", "ref"} {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/figures/4?size=" + size)
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("figure 4 at %s size: status %d", size, resp.StatusCode)
				}
			}
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	wall := time.Since(t0).Seconds()
	body, _ := scrapeMetrics(t, ts)
	if sum := metricValue(t, body, `clusterd_simulate_seconds_sum{policy="static"}`); sum > wall {
		t.Fatalf("one worker: two sizes' figure cells simulated for %.3fs within %.3fs of wall clock", sum, wall)
	}
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
	// Every single-program run is at the seed placement, and the
	// simulate histogram keeps the policy="static" label scrapers
	// select on.
	if v := metricValue(t, body, `clusterd_simulate_seconds_count{policy="static"}`); v != 1 {
		t.Errorf(`simulate_seconds_count{policy="static"} = %v, want 1`, v)
	}
	if v := metricValue(t, body, "clusterd_job_e2e_seconds_count"); v != 2 {
		t.Errorf("job_e2e_seconds_count = %v, want 2 (simulated job + cache fast path)", v)
	}
	if v := metricValue(t, body, "clusterd_job_queue_wait_seconds_count"); v != 1 {
		t.Errorf("job_queue_wait_seconds_count = %v, want 1", v)
	}

	// Queue wait and end to end are both timed from admission: the one
	// queued job's wait is finite, positive and no more than the summed
	// end-to-end time of the two jobs.
	w, e := srv.tel.queueWait.Sum(), srv.tel.e2e.Sum()
	if math.IsNaN(w) || w <= 0 || math.IsInf(w, 0) {
		t.Errorf("queue-wait sum = %v, want finite positive", w)
	}
	if w > e {
		t.Errorf("queue-wait sum %v exceeds e2e sum %v", w, e)
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
		"clusterd_trace_spans",
		"clusterd_trace_spans_dropped",
		"clusterd_uptime_seconds",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("metric families:\n got %d %v\nwant %d %v", len(got), got, len(want), want)
	}
}

// validMetricName is the Prometheus metric and label name grammar
// (':' excluded: it is reserved for recording rules).
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// TestMetricsNaming holds the daemon's own family list to the rules
// the exposition relies on: valid names and label names, strictly
// ascending (so unique, and the scrape is in name order), a type the
// format knows with the matching source, no counter named *_total (the
// writer appends it), no le label (histogram buckets own it), one
// value per label name on every sample, and non-empty sorted buckets.
func TestMetricsNaming(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	prev := ""
	for _, f := range srv.tel.families {
		if !validMetricName(f.Name) {
			t.Errorf("invalid metric name %q", f.Name)
		}
		if f.Name <= prev {
			t.Errorf("%q follows %q: names must be unique and ascending", f.Name, prev)
		}
		prev = f.Name
		for _, l := range f.Labels {
			if !validMetricName(l) || l == "le" {
				t.Errorf("%s: invalid label name %q", f.Name, l)
			}
		}
		switch f.Type {
		case "counter", "gauge":
			if f.Hist != nil || f.Collect == nil {
				t.Errorf("%s: a %s needs a Collect and no histogram", f.Name, f.Type)
				continue
			}
			if f.Type == "counter" && strings.HasSuffix(f.Name, "_total") {
				t.Errorf("counter %q must not end in _total", f.Name)
			}
			f.Collect(func(_ float64, values ...string) {
				if len(values) != len(f.Labels) {
					t.Errorf("%s: sample with %d label values, want %d", f.Name, len(values), len(f.Labels))
				}
			})
		case "histogram":
			if f.Hist == nil || f.Collect != nil {
				t.Errorf("%s: a histogram needs a Hist and no Collect", f.Name)
				continue
			}
			if len(f.LabelValues) != len(f.Labels) {
				t.Errorf("%s: %d label values, want %d", f.Name, len(f.LabelValues), len(f.Labels))
			}
			if b := f.Hist.Bounds; len(b) == 0 || !slices.IsSorted(b) {
				t.Errorf("%s: buckets %v are empty or unsorted", f.Name, b)
			}
		default:
			t.Errorf("%s: unknown type %q", f.Name, f.Type)
		}
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
