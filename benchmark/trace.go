package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// The traced run's instrumentation lives entirely in the benchmark:
// spans around the exported calls it makes into each layer, kept in
// memory and written as Chrome trace JSON when the run ends, and a CPU
// profile it starts, stops and decodes itself. Tracing inside the
// program is a later issue.

// span is one timed call: name is the exported function ("core.New"),
// id the cell/point/job it served, parent the index of the span that
// caused it (-1 for a root).
type span struct {
	Name   string
	ID     string
	Parent int
	Lane   int
	Start  time.Time
	End    time.Time
}

type tracer struct {
	mu    sync.Mutex
	spans []span
	t0    time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// begin opens a span and returns its index, which end closes and a
// child names as its parent. lane is the worker goroutine (one Chrome
// thread row each). A nil tracer records nothing, so untraced paths
// make the same calls.
func (t *tracer) begin(name, id string, parent, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Lane: lane, Start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return now.Sub(t.spans[i].Start)
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name, id string, parent, lane int, fn func()) time.Duration {
	if t == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	i := t.begin(name, id, parent, lane)
	fn()
	return t.end(i)
}

// durations returns the milliseconds of every closed span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && !s.End.IsZero() {
			out = append(out, ms(s.End.Sub(s.Start)))
		}
	}
	return out
}

// selfTimes returns, per span name, total duration minus the part
// covered by child spans (children of one span never overlap here:
// each lane makes its calls in sequence).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && !s.End.IsZero() {
			child[s.Parent] += s.End.Sub(s.Start)
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if !s.End.IsZero() {
			out[s.Name] += ms(s.End.Sub(s.Start) - child[i])
		}
	}
	return out
}

// writeChrome writes the spans in Chrome trace_event form (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span,
// one row per lane, with the id and parent as arguments.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End.IsZero() {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		evs = append(evs, event{s.Name, layer, "X",
			float64(s.Start.Sub(t.t0)) / 1e3, float64(s.End.Sub(s.Start)) / 1e3, 1, s.Lane,
			map[string]any{"id": s.ID, "span": i, "parent": s.Parent}})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// ---- CPU profile ----

// cpuProfile wraps runtime/pprof around the traced phase.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and emits cpu_share.*: each layer's share of
// the samples (see layerOf). Allocator and GC samples are recognised
// anywhere in the stack first, since their leaves are scattered over
// the runtime.
func (p *cpuProfile) stop(e *env) error {
	pprof.StopCPUProfile()
	shares, err := profileShares(p.buf.Bytes())
	if err != nil {
		return err
	}
	for _, l := range cpuShareLayers {
		e.set("cpu_share."+l, shares[l])
	}
	return nil
}

func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]float64{}
	total := 0.0
	for _, s := range prof.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		stack := make([]string, 0, len(s.locs))
		for _, l := range s.locs {
			stack = append(stack, prof.funcs[l]...)
		}
		if len(stack) == 0 {
			continue
		}
		v := float64(s.values[0])
		counts[layerOf(stack)] += v
		total += v
	}
	shares := map[string]float64{}
	if total == 0 {
		shares["other"] = 1 // too short a phase for a single sample
		return shares, nil
	}
	for l, c := range counts {
		shares[l] = c / total
	}
	return shares, nil
}

var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcDrain", "runtime.wbBufFlush", "runtime.gcWriteBarrier", "runtime.gcStart", "runtime.gcMarkDone", "runtime.sweepone"}
var mallocFrames = []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.newarray", "runtime.makemap", "runtime.makechan", "runtime.rawbyteslice", "runtime.rawstring"}

// layerOf classifies one sample; stack[0] is the leaf. A sample
// belongs to the innermost frame that lies in a layer's package, so
// time a layer spends in the standard library or the runtime (sort and
// SHA-256 under prog's fingerprints, JSON under service's handlers)
// counts for the layer that asked for it — which is what bounds the
// saving a change to that layer can make. Samples with no layer frame
// at all go to std-net-json when their leaf is in the HTTP/JSON trees
// (the connection loops, the benchmark's own clients) and to other
// otherwise.
func layerOf(stack []string) string {
	for _, set := range []struct {
		layer  string
		frames []string
	}{{"runtime-gc", gcFrames}, {"runtime-malloc", mallocFrames}} {
		for _, f := range stack {
			for _, g := range set.frames {
				if strings.HasPrefix(f, g) {
					return set.layer
				}
			}
		}
	}
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(funcPackage(f), "clustersmt/internal/"); ok {
			if l, grouped := layerAlias[rest]; grouped {
				rest = l
			}
			for _, l := range cpuShareLayers {
				if rest == l {
					return l
				}
			}
		}
	}
	pkg := funcPackage(stack[0])
	for _, root := range stdNetJSON {
		if pkg == root || strings.HasPrefix(pkg, root+"/") {
			return "std-net-json"
		}
	}
	return "other"
}

// layerAlias folds the packages the issue groups with a neighbour into
// that neighbour's share: program construction with prog, the interval
// sampler with telemetry.
var layerAlias = map[string]string{"workloads": "prog", "obs": "telemetry"}

// stdNetJSON are the standard-library trees behind clusterd's HTTP and
// JSON path.
var stdNetJSON = []string{"net", "encoding", "syscall", "internal/poll", "internal/runtime/syscall",
	"os", "bufio", "mime", "vendor/golang.org/x/net", "strconv", "reflect", "unicode/utf8"}

// funcPackage cuts a symbol name ("clustersmt/internal/core.(*Simulator).step")
// down to its import path.
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// ---- minimal pprof (profile.proto) decoder ----

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples []profSample
	funcs   map[uint64][]string // location id -> function names, innermost inline first
}

type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if len(p.b) == 0 || shift > 63 {
			p.err = fmt.Errorf("cpu profile: truncated varint")
			p.b = nil
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if uint64(len(p.b)) < n {
		p.err = fmt.Errorf("cpu profile: truncated field")
		p.b = nil
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// fields walks one message, handing each field to fn as either a
// varint (wire type 0) or a length-delimited payload (wire type 2).
func fields(msg []byte, fn func(num int, v uint64, payload []byte)) error {
	p := &pbuf{b: msg}
	for len(p.b) > 0 && p.err == nil {
		key := p.varint()
		switch key & 7 {
		case 0:
			fn(int(key>>3), p.varint(), nil)
		case 2:
			fn(int(key>>3), 0, p.bytes())
		case 1:
			p.b = p.b[min(8, len(p.b)):]
		case 5:
			p.b = p.b[min(4, len(p.b)):]
		default:
			return fmt.Errorf("cpu profile: wire type %d", key&7)
		}
	}
	return p.err
}

// packed reads a repeated integer field that may arrive packed
// (payload) or as single varints (v).
func packed(dst []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(dst, v)
	}
	p := &pbuf{b: payload}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst
}

func decodeProfile(raw []byte) (*profile, error) {
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	prof := &profile{funcs: map[uint64][]string{}}
	var inner error
	keep := func(err error) {
		if err != nil && inner == nil {
			inner = err
		}
	}
	err := fields(raw, func(num int, _ uint64, payload []byte) {
		switch num {
		case 2: // sample
			var s profSample
			keep(fields(payload, func(n int, v uint64, pl []byte) {
				switch n {
				case 1:
					s.locs = packed(s.locs, v, pl)
				case 2:
					for _, x := range packed(nil, v, pl) {
						s.values = append(s.values, int64(x))
					}
				}
			}))
			prof.samples = append(prof.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			keep(fields(payload, func(n int, v uint64, pl []byte) {
				switch n {
				case 1:
					id = v
				case 4: // line
					keep(fields(pl, func(n2 int, v2 uint64, _ []byte) {
						if n2 == 1 {
							fns = append(fns, v2)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			keep(fields(payload, func(n int, v uint64, _ []byte) {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}))
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(payload))
		}
	})
	if err == nil {
		err = inner
	}
	if err != nil {
		return nil, err
	}
	for loc, fns := range locFuncs {
		for _, f := range fns {
			if i := funcName[f]; i < uint64(len(strs)) {
				prof.funcs[loc] = append(prof.funcs[loc], strs[i])
			}
		}
	}
	return prof, nil
}
