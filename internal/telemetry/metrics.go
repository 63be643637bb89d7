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
// one histogram with constant label values or a collector consulted at
// scrape time.
type family struct {
	name       string
	help       string
	typ        MetricType
	labelNames []string

	labelValues []string      // a histogram's constant label values
	hist        *Histogram    // non-nil for histogram families
	collect     CollectorFunc // non-nil for func-backed families
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

// register adds a family, panicking on duplicate or invalid names —
// both are programming errors caught by the first scrape test.
func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", f.name))
	}
	if f.typ == TypeCounter && strings.HasSuffix(f.name, "_total") {
		// The exposition appends _total to counter samples; a family
		// registered with the suffix would render name_total_total.
		panic(fmt.Sprintf("telemetry: counter %q must not end in _total", f.name))
	}
	for _, l := range f.labelNames {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, f.name))
		}
	}
	if f.hist != nil {
		if len(f.hist.bounds) == 0 {
			panic(fmt.Sprintf("telemetry: histogram %q needs buckets", f.name))
		}
		if !sort.Float64sAreSorted(f.hist.bounds) {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not sorted", f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", f.name))
	}
	r.families[f.name] = f
}

// ---- func-backed families ----

// CounterFunc registers a counter whose value is read at scrape time —
// for mirroring counters the service already maintains (pool accepted/
// rejected totals) without double bookkeeping. fn must be monotonic.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.CollectFunc(name, help, TypeCounter, nil, func(emit func([]string, float64)) { emit(nil, fn()) })
}

// GaugeFunc registers a gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.CollectFunc(name, help, TypeGauge, nil, func(emit func([]string, float64)) { emit(nil, fn()) })
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
	r.register(&family{name: name, help: help, typ: typ, labelNames: labelNames, collect: fn})
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

// Histogram registers a histogram. labels are constant name/value
// pairs every sample carries (policy="static" on clusterd's simulate
// histogram).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: %q wants label name/value pairs, got %d strings", name, len(labels)))
	}
	f := &family{name: name, help: help, typ: TypeHistogram, hist: newHistogram(buckets)}
	for i := 0; i < len(labels); i += 2 {
		f.labelNames = append(f.labelNames, labels[i])
		f.labelValues = append(f.labelValues, labels[i+1])
	}
	r.register(f)
	return f.hist
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
		f.writeHistogram(&b)
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

// writeHistogram renders a histogram family's cumulative buckets, sum
// and count.
func (f *family) writeHistogram(b *strings.Builder) {
	h := f.hist
	counts := h.snapshot()
	var cum uint64
	for bi, bound := range h.bounds {
		cum += counts[bi]
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
			labelString(f.labelNames, f.labelValues, fmtFloat(bound)), cum)
	}
	cum += counts[len(h.bounds)]
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, f.labelValues, "+Inf"), cum)
	labels := labelString(f.labelNames, f.labelValues, "")
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labels, fmtFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, labels, cum)
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
