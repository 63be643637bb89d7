// Package telemetry is the service-side observability layer: lock-free
// latency histograms and one OpenMetrics/Prometheus text writer over a
// fixed list of metric families (counters and gauges read at scrape
// time from state their owner already keeps), plus trace-ID
// propagation helpers and a bounded span ring exported as Chrome
// trace_event JSON (trace.go).
//
// It complements internal/obs, which observes the *simulated* machine
// (cycle-domain interval frames); this package observes the *serving*
// system around it (wall-clock latencies, queue depths, cache health).
// Like obs, it is strictly read-only with respect to results: nothing
// here reaches the simulator, and the service differential test pins
// that simulation output is bit-identical with telemetry on or off.
//
// Concurrency: Histogram.Observe is safe for concurrent use (atomics),
// and WriteOpenMetrics may run concurrently with any number of
// observers — a scrape sees each sample at some point-in-time value,
// monotonically consistent for counters.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Emit records one scrape-time sample: its value and one label value
// per label name of its family, in the family's order.
type Emit func(v float64, labelValues ...string)

// Family is one metric family. Its owner builds the list once; the
// names follow the Prometheus grammar, a counter's carries no _total
// (the exposition appends it) and no family uses the label le — the
// service's tests hold its list to those rules.
type Family struct {
	Name, Help string
	Type       string   // "counter", "gauge" or "histogram"
	Labels     []string // label names, in rendering order

	// Collect emits a counter's or gauge's samples at scrape time.
	Collect func(emit Emit)
	// Hist is a histogram family's histogram, and LabelValues the
	// constant values of its labels (policy="static" on clusterd's
	// simulate histogram).
	Hist        *Histogram
	LabelValues []string
}

// Histogram counts observations into cumulative le-buckets — the
// latency-distribution primitive behind every *_seconds metric. Bucket
// upper bounds are fixed at construction; observations beyond the last
// bound land in the implicit +Inf bucket.
type Histogram struct {
	Bounds  []float64
	counts  []atomic.Uint64 // len(Bounds)+1; last is +Inf
	sumBits atomic.Uint64   // float64 bits, CAS-accumulated
	count   atomic.Uint64
}

// NewHistogram returns an empty histogram over the given sorted upper
// bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{Bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v) // first bound >= v: its le-bucket
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

// DefaultLatencyBuckets spans 100µs to ~52s in 20 factor-2 steps — wide
// enough for cache hits (microseconds) and ref-size simulations
// (minutes land in +Inf) on one scale.
var DefaultLatencyBuckets = func() []float64 {
	b := make([]float64, 20)
	for i := range b {
		b[i] = math.Ldexp(100e-6, i)
	}
	return b
}()

// ContentType is the exposition's Content-Type.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

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

// labelString renders {k="v",...} for the given names and values, or
// nothing when there are no labels.
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	pairs := make([]string, len(names))
	for i, n := range names {
		pairs[i] = n + `="` + labelEscaper.Replace(values[i]) + `"`
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// WriteOpenMetrics renders the families in list order: # HELP and
// # TYPE metadata, the samples (a family's in label order, counters
// with the _total suffix, histograms as cumulative _bucket/_sum/_count),
// and the terminating # EOF line the OpenMetrics format requires.
func WriteOpenMetrics(w io.Writer, families []Family) error {
	var b strings.Builder
	for _, f := range families {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, helpEscaper.Replace(f.Help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		if f.Hist != nil {
			writeHistogram(&b, f)
			continue
		}
		var samples []string
		f.Collect(func(v float64, labelValues ...string) {
			samples = append(samples, labelString(f.Labels, labelValues)+" "+fmtFloat(v))
		})
		sort.Strings(samples)
		suffix := ""
		if f.Type == "counter" {
			suffix = "_total"
		}
		for _, s := range samples {
			fmt.Fprintf(&b, "%s%s%s\n", f.Name, suffix, s)
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders a histogram family's cumulative buckets, each
// with its le label last, then its sum and count.
func writeHistogram(b *strings.Builder, f Family) {
	h := f.Hist
	counts := h.snapshot()
	names := append(slices.Clip(f.Labels), "le")
	values := append(slices.Clip(f.LabelValues), "")
	var cum uint64
	for bi, c := range counts {
		cum += c
		le := math.Inf(1)
		if bi < len(h.Bounds) {
			le = h.Bounds[bi]
		}
		values[len(values)-1] = fmtFloat(le)
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.Name, labelString(names, values), cum)
	}
	labels := labelString(f.Labels, f.LabelValues)
	fmt.Fprintf(b, "%s_sum%s %s\n", f.Name, labels, fmtFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", f.Name, labels, cum)
}
