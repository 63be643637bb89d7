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

// goldenRegistry builds one registry exercising every family kind:
// func-backed counters and gauges, collector-backed labeled families of
// both types, a histogram spanning its finite buckets plus +Inf, and a
// labeled histogram family.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.CounterFunc("jobs_done", "Jobs completed.", func() float64 { return 3 })
	r.CollectFunc("cache_hits", "Cache hits by tier.", TypeCounter, []string{"tier"},
		func(emit func([]string, float64)) {
			emit([]string{"memory"}, 5)
			emit([]string{"disk"}, 1)
		})
	r.GaugeFunc("queue_depth", "Jobs waiting.", func() float64 { return 2 })
	r.GaugeFunc("uptime_seconds", "Seconds since start.", func() float64 { return 1.5 })
	r.CollectFunc("member_up", "Fleet member liveness.", TypeGauge, []string{"member"},
		func(emit func([]string, float64)) {
			emit([]string{"w2"}, 0)
			emit([]string{"w1"}, 1)
		})
	h := r.Histogram("latency_seconds", "Job latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 20} {
		h.Observe(v)
	}
	hv := r.HistogramVec("simulate_seconds", "Simulation time by policy.", []float64{1, 2}, "policy")
	hv.With("static").Observe(0.5)
	hv.With("icount").Observe(1.5)
	hv.With("icount").Observe(3)
	return r
}

// TestOpenMetricsGolden pins the full exposition byte-for-byte against
// testdata/metrics.golden: family ordering, HELP/TYPE metadata, _total
// suffixes, label rendering, cumulative buckets, and the # EOF
// terminator.
func TestOpenMetricsGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WriteOpenMetrics(&b); err != nil {
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
	if err := goldenRegistry().WriteOpenMetrics(&b); err != nil {
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

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	zero := func() float64 { return 0 }
	r.CounterFunc("ok", "fine", zero)
	mustPanic("duplicate", func() { r.GaugeFunc("ok", "again", zero) })
	mustPanic("invalid name", func() { r.CounterFunc("bad-name", "hyphen", zero) })
	mustPanic("counter _total suffix", func() { r.CounterFunc("c_total", "suffix", zero) })
	mustPanic("digit first", func() { r.CounterFunc("9lives", "digit", zero) })
	mustPanic("le label", func() { r.HistogramVec("c2", "h", []float64{1}, "le") })
	mustPanic("empty buckets", func() { r.Histogram("h1", "h", nil) })
	mustPanic("unsorted buckets", func() { r.Histogram("h2", "h", []float64{2, 1}) })
	mustPanic("collect histogram", func() {
		r.CollectFunc("h3", "h", TypeHistogram, nil, func(func([]string, float64)) {})
	})
	mustPanic("label arity", func() {
		r.HistogramVec("c3", "h", []float64{1}, "a", "b").With("only-one")
	})
}

// TestHistogramQuantilePinned pins exact interpolation results on a
// hand-checkable histogram: one observation per bucket, so every
// quantile lands on a bucket boundary.
func TestHistogramQuantilePinned(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "test", []float64{1, 2, 4, 8})
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
	if got := h.Count(); got != 4 {
		t.Errorf("Count = %v, want 4", got)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "test", []float64{1, 2})
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
	r := NewRegistry()
	h := r.Histogram("h", "test", DefaultLatencyBuckets)
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

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(100e-6, 2, 20)
	if len(b) != 20 || b[0] != 100e-6 {
		t.Fatalf("unexpected buckets: %v", b)
	}
	for i := 1; i < len(b); i++ {
		if math.Abs(b[i]/b[i-1]-2) > 1e-9 {
			t.Fatalf("bucket %d not factor-2: %v / %v", i, b[i], b[i-1])
		}
	}
	if !sort.Float64sAreSorted(b) {
		t.Fatal("buckets not sorted")
	}
}

// TestConcurrentScrape hammers every metric kind from many goroutines
// while scraping in parallel — the race detector (make race) is the
// assertion; the final scrape sanity-checks totals.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	var ops, depth atomic.Int64
	r.CounterFunc("ops", "ops", func() float64 { return float64(ops.Load()) })
	r.GaugeFunc("depth", "depth", func() float64 { return float64(depth.Load()) })
	r.CollectFunc("ops_by", "ops by kind", TypeCounter, []string{"kind"},
		func(emit func([]string, float64)) { emit([]string{"all"}, float64(ops.Load())) })
	h := r.Histogram("lat", "latency", DefaultLatencyBuckets)
	hv := r.HistogramVec("lat_by", "latency by kind", []float64{1, 2}, "kind")

	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := string(rune('a' + w%3))
			for i := 0; i < iters; i++ {
				ops.Add(1)
				depth.Store(int64(i))
				h.Observe(float64(i) * 1e-4)
				hv.With(kind).Observe(float64(i % 3))
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b strings.Builder
				if err := r.WriteOpenMetrics(&b); err != nil {
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
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("ops_total %d\n", workers*iters); !strings.Contains(b.String(), want) {
		t.Errorf("final scrape lacks %q", want)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("lat count = %d, want %d", got, workers*iters)
	}
}
