package service

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"clustersmt/internal/telemetry"
)

// TestJobPanicCounted: a simulation that panics fails its job, not the
// node; clusterd_job_panics_total goes from 0 to 1; and the job's trace
// carries a panic span with the panic value and at most 4 KB of stack.
// A job that merely fails is not counted.
func TestJobPanicCounted(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	scrape := func() float64 {
		body, _ := scrapeMetrics(t, ts)
		return metricValue(t, body, "clusterd_job_panics_total")
	}
	if n := scrape(); n != 0 {
		t.Fatalf("clusterd_job_panics_total = %v before any job, want 0", n)
	}
	srv.suite.OnSimulate = func(context.Context, string, string, bool, time.Duration, error) {
		panic("simulation misbehaves")
	}
	status, j, hdr := submit(t, ts, JobSpec{App: "vpenta", Arch: "SMT2"})
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	if j = waitJob(t, ts, j.ID); j.Status != StateFailed || !strings.Contains(j.Error, "panic: simulation misbehaves") {
		t.Fatalf("job %s: status %s, error %q; want failed with the panic", j.ID, j.Status, j.Error)
	}
	if n := scrape(); n != 1 {
		t.Fatalf("clusterd_job_panics_total = %v, want 1", n)
	}

	doc, code := getTraceSpans(t, ts.URL, hdr.Get(telemetry.TraceIDHeader))
	if code != http.StatusOK {
		t.Fatalf("GET trace: status %d", code)
	}
	var text string
	for _, s := range doc.Spans {
		if s.Name == "panic" && s.Attrs["job"] == j.ID {
			text = s.Attrs["panic"]
		}
	}
	value, stack, ok := strings.Cut(text, "\n\n")
	if !ok || !strings.Contains(value, "panic: simulation misbehaves") || stack == "" || len(stack) > maxPanicStack {
		t.Fatalf("panic span: value %q, %d bytes of stack; want the value and 1..%d bytes", value, len(stack), maxPanicStack)
	}

	// A run that fails without panicking leaves the counter alone.
	srv.suite.OnSimulate = nil
	srv.suite.MaxCycles = 10
	if _, j, _ = submit(t, ts, JobSpec{App: "swim", Arch: "SMT2"}); waitJob(t, ts, j.ID).Status != StateFailed {
		t.Fatal("a run past MaxCycles did not fail")
	}
	if n := scrape(); n != 1 {
		t.Fatalf("clusterd_job_panics_total = %v after a plain failure, want 1", n)
	}
}
