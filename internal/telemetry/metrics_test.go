package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// scalar is a Collect emitting one unlabeled sample.
func scalar(v float64) func(Emit) { return func(emit Emit) { emit(v) } }

// goldenFamilies is one family list exercising every family kind, in
// name order: unlabeled counters and gauges, labeled families of both
// types emitting out of label order, a histogram spanning its finite
// buckets plus +Inf, and a histogram carrying a constant label.
func goldenFamilies() []Family {
	latency := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 20} {
		latency.Observe(v)
	}
	simulate := NewHistogram([]float64{1, 2})
	simulate.Observe(0.5)
	return []Family{
		{Name: "cache_hits", Help: "Cache hits by tier.", Type: "counter", Labels: []string{"tier"},
			Collect: func(emit Emit) {
				emit(5, "memory")
				emit(1, "disk")
			}},
		{Name: "jobs_done", Help: "Jobs completed.", Type: "counter", Collect: scalar(3)},
		{Name: "latency_seconds", Help: "Job latency.", Type: "histogram", Hist: latency},
		{Name: "member_up", Help: "Fleet member liveness.", Type: "gauge", Labels: []string{"member"},
			Collect: func(emit Emit) {
				emit(0, "w2")
				emit(1, "w1")
			}},
		{Name: "queue_depth", Help: "Jobs waiting.", Type: "gauge", Collect: scalar(2)},
		{Name: "simulate_seconds", Help: "Simulation time by policy.", Type: "histogram",
			Labels: []string{"policy"}, LabelValues: []string{"static"}, Hist: simulate},
		{Name: "uptime_seconds", Help: "Seconds since start.", Type: "gauge", Collect: scalar(1.5)},
	}
}

// TestOpenMetricsGolden pins the full exposition byte-for-byte against
// testdata/metrics.golden: family ordering, HELP/TYPE metadata, _total
// suffixes, label rendering, cumulative buckets, and the # EOF
// terminator.
func TestOpenMetricsGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteOpenMetrics(&b, goldenFamilies()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("exposition mismatch\n-- got --\n%s\n-- want --\n%s", b.String(), want)
	}
}

// TestOpenMetricsShape checks the structural invariants a scraper
// relies on without pinning bytes: exactly one HELP and TYPE line per
// family, samples only after their metadata, and # EOF last.
func TestOpenMetricsShape(t *testing.T) {
	var b strings.Builder
	if err := WriteOpenMetrics(&b, goldenFamilies()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if lines[len(lines)-1] != "# EOF" {
		t.Fatalf("last line = %q, want # EOF", lines[len(lines)-1])
	}
	help, typ := 0, 0
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "# HELP "):
			help++
		case strings.HasPrefix(l, "# TYPE "):
			typ++
		}
	}
	if help != 7 || typ != 7 {
		t.Errorf("got %d HELP / %d TYPE lines, want 7 / 7", help, typ)
	}
}

// TestHistogramQuantilePinned pins exact interpolation results on a
// hand-checkable histogram: one observation per bucket, so every
// quantile lands on a bucket boundary.
func TestHistogramQuantilePinned(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 3, 6} {
		h.Observe(v)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.25, 1}, {0.5, 2}, {0.75, 4}, {1, 8},
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := h.Sum(); got != 11 {
		t.Errorf("Sum = %v, want 11", got)
	}
	if got := h.count.Load(); got != 4 {
		t.Errorf("Count = %v, want 4", got)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram: want NaN")
	}
	h.Observe(100) // +Inf bucket
	if got := h.Quantile(1); got != 2 {
		t.Errorf("+Inf bucket quantile = %v, want last finite bound 2", got)
	}
	if !math.IsNaN(h.Quantile(0)) || !math.IsNaN(h.Quantile(1.5)) {
		t.Error("out-of-range q: want NaN")
	}
}

// TestHistogramProperty drives random observations through the default
// latency buckets and checks (a) every bucket count matches a
// recomputation from the raw values, and (b) each estimated quantile
// falls inside the bucket that contains the true sample quantile — the
// bucket-width error bound the package documents.
func TestHistogramProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := NewHistogram(DefaultLatencyBuckets)
	const n = 5000
	values := make([]float64, n)
	for i := range values {
		// Log-uniform across the bucket range, plus outliers past +Inf.
		e := rng.Float64()*22 - 1 // 2^-1 .. 2^21 times start
		values[i] = 100e-6 * math.Pow(2, e)
		h.Observe(values[i])
	}

	// (a) bucket counts match a recount from raw values.
	want := make([]uint64, len(DefaultLatencyBuckets)+1)
	for _, v := range values {
		want[sort.SearchFloat64s(DefaultLatencyBuckets, v)]++
	}
	got := h.snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d: got %d, want %d", i, got[i], want[i])
		}
	}

	// (b) quantile estimates land in the true quantile's bucket.
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		truth := sorted[int(math.Ceil(q*n))-1]
		bi := sort.SearchFloat64s(DefaultLatencyBuckets, truth)
		lo, hi := 0.0, math.Inf(1)
		if bi > 0 {
			lo = DefaultLatencyBuckets[bi-1]
		}
		if bi < len(DefaultLatencyBuckets) {
			hi = DefaultLatencyBuckets[bi]
		}
		est := h.Quantile(q)
		if est < lo || est > hi {
			t.Errorf("p%v = %v outside true bucket [%v, %v] (true %v)",
				q*100, est, lo, hi, truth)
		}
		// Factor-2 buckets bound relative error by 2x above the first bucket.
		if bi > 0 && bi < len(DefaultLatencyBuckets) && (est > 2*truth || truth > 2*est) {
			t.Errorf("p%v = %v more than 2x from true %v", q*100, est, truth)
		}
	}
}

// TestDefaultLatencyBuckets pins the shared latency layout: 20 sorted
// factor-2 bounds from 100µs.
func TestDefaultLatencyBuckets(t *testing.T) {
	b := DefaultLatencyBuckets
	if len(b) != 20 || b[0] != 100e-6 {
		t.Fatalf("unexpected buckets: %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Fatalf("bucket %d not factor-2: %v / %v", i, b[i], b[i-1])
		}
	}
}

// TestConcurrentScrape hammers every family kind from many goroutines
// while WriteOpenMetrics scrapes the same list in parallel — the race detector (make race) is the
// assertion; the final scrape sanity-checks totals.
func TestConcurrentScrape(t *testing.T) {
	var ops, depth atomic.Int64
	h := NewHistogram(DefaultLatencyBuckets)
	hl := NewHistogram([]float64{1, 2})
	families := []Family{
		{Name: "depth", Help: "depth", Type: "gauge",
			Collect: func(emit Emit) { emit(float64(depth.Load())) }},
		{Name: "lat", Help: "latency", Type: "histogram", Hist: h},
		{Name: "lat_by", Help: "latency by kind", Type: "histogram",
			Labels: []string{"kind"}, LabelValues: []string{"all"}, Hist: hl},
		{Name: "ops", Help: "ops", Type: "counter",
			Collect: func(emit Emit) { emit(float64(ops.Load())) }},
		{Name: "ops_by", Help: "ops by kind", Type: "counter", Labels: []string{"kind"},
			Collect: func(emit Emit) { emit(float64(ops.Load()), "all") }},
	}

	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ops.Add(1)
				depth.Store(int64(i))
				h.Observe(float64(i) * 1e-4)
				hl.Observe(float64(i % 3))
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				if err := WriteOpenMetrics(&b, families); err != nil {
					t.Error(err)
					return
				}
				if !strings.HasSuffix(b.String(), "# EOF\n") {
					t.Error("scrape missing # EOF terminator")
					return
				}
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	if err := WriteOpenMetrics(&b, families); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("ops_total %d\n", workers*iters),
		fmt.Sprintf("lat_count %d\n", workers*iters),
		fmt.Sprintf("lat_by_bucket{kind=\"all\",le=\"+Inf\"} %d\n", workers*iters),
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("final scrape lacks %q", want)
		}
	}
	if got := h.count.Load(); got != workers*iters {
		t.Errorf("lat count = %d, want %d", got, workers*iters)
	}
}
