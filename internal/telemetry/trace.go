package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Trace IDs follow one job: generated at submission (or accepted from
// an X-Trace-Id header), carried in the request context and stamped on
// every span. They are opaque tokens — no structure, no ordering.

// TraceIDHeader is the HTTP header trace IDs ride in.
const TraceIDHeader = "X-Trace-Id"

// NewTraceID returns a fresh 32-hex-char trace ID.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a trace ID
		// only needs uniqueness, so degrade to the wall clock.
		return fmt.Sprintf("t%032x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID bounds accepted IDs: 1–64 chars of [A-Za-z0-9_-], so a
// client-supplied header can never smuggle structure into logs, file
// names, or label values.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for _, r := range s {
		ok := (r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') ||
			(r >= 'A' && r <= 'Z') || r == '_' || r == '-'
		if !ok {
			return false
		}
	}
	return true
}

type traceIDKey struct{}

// WithTraceID returns ctx carrying the trace ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom returns the context's trace ID, or "".
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// Span is one completed, named interval of a traced job on one node.
// Times are wall-clock unix microseconds — the unit Chrome trace_event
// uses natively — so they render onto a timeline without conversion.
type Span struct {
	TraceID string            `json:"trace_id"`
	Name    string            `json:"name"`
	Node    string            `json:"node"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// DefaultSpanRingCap bounds retained spans when callers pass 0: at the
// ~7 spans a traced job records, it covers the last ~580 jobs.
const DefaultSpanRingCap = 4096

// SpanRing retains the most recent spans in a fixed-capacity circular
// buffer, queryable by trace ID. It is the per-node span store behind
// GET /v1/trace/{id} — bounded by construction, so tracing every job is
// safe at any request rate.
type SpanRing struct {
	mu     sync.Mutex
	spans  []Span
	start  int
	count  int
	pushed int
}

// NewSpanRing returns a ring retaining up to capacity spans
// (DefaultSpanRingCap when capacity <= 0).
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultSpanRingCap
	}
	return &SpanRing{spans: make([]Span, capacity)}
}

// Record appends one completed span, overwriting the oldest once full.
// Spans without a trace ID are dropped — they could never be queried.
func (r *SpanRing) Record(s Span) {
	if s.TraceID == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count < len(r.spans) {
		r.spans[(r.start+r.count)%len(r.spans)] = s
		r.count++
	} else {
		r.spans[r.start] = s
		r.start = (r.start + 1) % len(r.spans)
	}
	r.pushed++
}

// ByTrace returns the retained spans for one trace ID, oldest first.
func (r *SpanRing) ByTrace(id string) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for i := 0; i < r.count; i++ {
		s := r.spans[(r.start+i)%len(r.spans)]
		if s.TraceID == id {
			out = append(out, s)
		}
	}
	return out
}

// Len returns the number of retained spans.
func (r *SpanRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Dropped returns how many spans were overwritten by later records.
func (r *SpanRing) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pushed - r.count
}

// WriteChromeTrace renders spans as a Chrome trace_event JSON array —
// the same format the simulator's -trace-format chrome sink emits
// (internal/core/trace.go), so service-level job timelines and
// simulator-internal pipeline traces open in the same viewer
// (chrome://tracing, Perfetto). One node is one process (with a
// process_name metadata record); spans are complete events (ph "X")
// with ts/dur in microseconds.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	nodes := make(map[string]int)
	var order []string
	for _, s := range spans {
		if _, ok := nodes[s.Node]; !ok {
			nodes[s.Node] = 0
			order = append(order, s.Node)
		}
	}
	sort.Strings(order)
	for i, n := range order {
		nodes[n] = i + 1
	}
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].StartUS != sorted[j].StartUS {
			return sorted[i].StartUS < sorted[j].StartUS
		}
		return sorted[i].Name < sorted[j].Name
	})

	var b strings.Builder
	b.WriteString("[")
	first := true
	sep := func() {
		if first {
			b.WriteString("\n")
			first = false
		} else {
			b.WriteString(",\n")
		}
	}
	for _, n := range order {
		sep()
		fmt.Fprintf(&b, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			nodes[n], strconv.Quote(n))
	}
	for _, s := range sorted {
		args := map[string]string{"trace_id": s.TraceID}
		for k, v := range s.Attrs {
			args[k] = v
		}
		rawArgs, err := json.Marshal(args)
		if err != nil {
			return err
		}
		dur := s.DurUS
		if dur < 1 {
			dur = 1 // zero-width spans vanish in the viewer
		}
		sep()
		fmt.Fprintf(&b, `{"name":%s,"cat":"service","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":1,"args":%s}`,
			strconv.Quote(s.Name), s.StartUS, dur, nodes[s.Node], rawArgs)
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}
