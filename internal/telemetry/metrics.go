// Package telemetry is the service-side observability layer: a
// dependency-free metrics registry (log-bucketed latency histograms
// with quantile estimation, and counters and gauges read at scrape time
// from state their owner already keeps) rendered as
// OpenMetrics/Prometheus text, plus trace-ID propagation helpers and a
// bounded span ring exported as Chrome trace_event JSON (trace.go).
//
// It complements internal/obs, which observes the *simulated* machine
// (cycle-domain interval frames); this package observes the *serving*
// system around it (wall-clock latencies, queue depths, cache health).
// Like obs, it is strictly read-only with respect to results: nothing
// here reaches the simulator, and the service differential test pins
// that simulation output is bit-identical with telemetry on or off.
//
// Concurrency: every metric is safe for concurrent use (atomics), and
// WriteOpenMetrics may run concurrently with any number of writers —
// a scrape sees each sample at some point-in-time value, monotonically
// consistent for counters.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the OpenMetrics family type.
type MetricType int

const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeHistogram
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "unknown"
}

// CollectorFunc emits samples at scrape time — the hook func-backed
// families use to read live state (pool depths, cache counters)
// without double bookkeeping. labelValues must match the family's
// label names in length and order.
type CollectorFunc func(emit func(labelValues []string, value float64))

// family is one metric family: a name, help text, a type, and either
// materialized histograms (one per label-value combination) or a
// collector consulted at scrape time.
type family struct {
	name       string
	help       string
	typ        MetricType
	labelNames []string
	buckets    []float64 // histogram families only

	mu       sync.Mutex
	children map[string]*Histogram // label-values key -> histogram
	collect  CollectorFunc         // non-nil for func-backed families
}

// Registry holds metric families and renders them as OpenMetrics text.
// The zero value is not usable — construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName is the Prometheus metric/label name grammar (':' excluded:
// it is reserved for recording rules, which this registry never emits).
func validName(s string) bool {
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

// register creates a family, panicking on duplicate or invalid names —
// both are programming errors caught by the first scrape test.
func (r *Registry) register(name, help string, typ MetricType, labelNames []string, buckets []float64, collect CollectorFunc) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if typ == TypeCounter && strings.HasSuffix(name, "_total") {
		// The exposition appends _total to counter samples; a family
		// registered with the suffix would render name_total_total.
		panic(fmt.Sprintf("telemetry: counter %q must not end in _total", name))
	}
	for _, l := range labelNames {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, name))
		}
	}
	if typ == TypeHistogram {
		if len(buckets) == 0 {
			panic(fmt.Sprintf("telemetry: histogram %q needs buckets", name))
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not sorted", name))
		}
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelNames: labelNames, buckets: buckets,
		children: make(map[string]*Histogram), collect: collect,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.families[name] = f
	return f
}

// child returns (creating on first use) the histogram for one
// label-value combination.
func (f *family) child(labelValues []string) *Histogram {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = newHistogram(f.buckets)
		f.children[key] = c
	}
	return c
}

// ---- func-backed families ----

// CounterFunc registers a counter whose value is read at scrape time —
// for mirroring counters the service already maintains (pool accepted/
// rejected totals) without double bookkeeping. fn must be monotonic.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeCounter, nil, nil,
		func(emit func([]string, float64)) { emit(nil, fn()) })
}

// GaugeFunc registers a gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeGauge, nil, nil,
		func(emit func([]string, float64)) { emit(nil, fn()) })
}

// CollectFunc registers a family whose full sample set (including its
// label values) is produced at scrape time — the shape label sets
// need when they are read, not declared: per-tier cache hits, the build
// version. typ must
// be TypeCounter or TypeGauge.
func (r *Registry) CollectFunc(name, help string, typ MetricType, labelNames []string, fn CollectorFunc) {
	if typ == TypeHistogram {
		panic("telemetry: CollectFunc does not support histograms")
	}
	r.register(name, help, typ, labelNames, nil, fn)
}

// ---- histogram ----

// Histogram counts observations into cumulative le-buckets — the
// latency-distribution primitive behind every *_seconds metric. Bucket
// upper bounds are fixed at registration (use ExpBuckets for the
// log-spaced layout); observations beyond the last bound land in the
// implicit +Inf bucket.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64   // float64 bits, CAS-accumulated
	count   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: its le-bucket
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot copies the per-bucket counts (non-cumulative).
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket
// counts: the bucket holding the target rank bounds the true value, and
// the estimate interpolates linearly within it. The error is therefore
// bounded by the bucket width — with ExpBuckets' factor-2 layout, at
// most 2x — which the property test pins. Returns NaN when empty; the
// +Inf bucket reports its lower bound (the last finite bound).
func (h *Histogram) Quantile(q float64) float64 {
	counts := h.snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || q <= 0 || q > 1 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		if cum+c < rank {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if i == len(h.bounds) { // +Inf bucket: no upper bound to interpolate to
			return lo
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(float64(rank-cum)/float64(c))
	}
	return h.bounds[len(h.bounds)-1] // unreachable: rank <= total
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start: start, start*factor, ... — the log-bucketed layout latency
// histograms use.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets spans 100µs to ~52s in factor-2 steps — wide
// enough for cache hits (microseconds) and ref-size simulations
// (minutes land in +Inf) on one scale.
var DefaultLatencyBuckets = ExpBuckets(100e-6, 2, 20)

// Histogram registers an unlabeled histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, TypeHistogram, nil, buckets, nil).child(nil)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers a histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, TypeHistogram, labelNames, buckets, nil)}
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues)
}

// ---- exposition ----

// fmtFloat renders a sample value: shortest round-trip form, +Inf as
// OpenMetrics spells it.
func fmtFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelString renders {k="v",...} for the given names/values, with an
// optional extra le pair appended (histogram buckets). Empty when there
// are no labels at all.
func labelString(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, labelEscaper.Replace(values[i]))
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `le="%s"`, le)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteOpenMetrics renders every family in name order: # HELP and
// # TYPE metadata, the samples (counters with the _total suffix,
// histograms as cumulative _bucket/_sum/_count), and the terminating
// # EOF line the OpenMetrics format requires.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, helpEscaper.Replace(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		if f.collect != nil {
			f.writeCollected(&b)
			continue
		}
		f.writeChildren(&b)
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeCollected renders a func-backed family's scrape-time samples.
func (f *family) writeCollected(b *strings.Builder) {
	type sample struct {
		labels string
		value  float64
	}
	var samples []sample
	f.collect(func(labelValues []string, v float64) {
		if len(labelValues) != len(f.labelNames) {
			panic(fmt.Sprintf("telemetry: %q collector emitted %d label values, want %d",
				f.name, len(labelValues), len(f.labelNames)))
		}
		samples = append(samples, sample{labelString(f.labelNames, labelValues, ""), v})
	})
	sort.Slice(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
	suffix := ""
	if f.typ == TypeCounter {
		suffix = "_total"
	}
	for _, s := range samples {
		fmt.Fprintf(b, "%s%s%s %s\n", f.name, suffix, s.labels, fmtFloat(s.value))
	}
}

// writeChildren renders a histogram family's children in sorted label
// order.
func (f *family) writeChildren(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*Histogram, len(keys))
	for i, k := range keys {
		kids[i] = f.children[k]
	}
	f.mu.Unlock()

	for i, k := range keys {
		var values []string
		if k != "" || len(f.labelNames) > 0 {
			values = strings.Split(k, "\xff")
		}
		labels := labelString(f.labelNames, values, "")
		c := kids[i]
		counts := c.snapshot()
		var cum uint64
		for bi, bound := range c.bounds {
			cum += counts[bi]
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(f.labelNames, values, fmtFloat(bound)), cum)
		}
		cum += counts[len(c.bounds)]
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, values, "+Inf"), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labels, fmtFloat(c.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, labels, cum)
	}
}

// ContentType is the exposition Content-Type served by Handler.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Handler serves the registry as an OpenMetrics scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WriteOpenMetrics(w)
	})
}
