package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"clustersmt/internal/coherence"
	"clustersmt/internal/core"
	"clustersmt/internal/stats"
)

// outDir holds everything a run writes: records, Chrome traces and the
// service's cache directories. It is relative to the working directory
// (the checkout root) and named in .gitignore.
const outDir = ".bench_build/benchmark"

// phaseLimit is the longest a measured phase may run; a workload that
// reaches it is mis-sized for the host and the run fails.
const phaseLimit = 30 * time.Second

// passResult is what one pass of a workload's fixed work produced.
type passResult struct {
	jobs int          // simulation requests completed
	inst uint64       // instructions committed by simulations run in the pass
	cold []coldSample // each request that had to simulate
}

// coldSample is the latency of one request that had to simulate. id
// names the request: passes that repeat the same requests (cells,
// columns, points) repeat the ids, and the run reports each request's
// median over passes; a job stream's ids are all distinct.
type coldSample struct {
	id string
	ms float64
}

func (p passResult) coldMS() []float64 {
	out := make([]float64, len(p.cold))
	for i, c := range p.cold {
		out[i] = c.ms
	}
	return out
}

// workload is one of the five named traffic shapes. setUp may be
// called several times (tearDown between); pass runs the fixed work
// once, untraced; traced is the whole traced run and sets the
// per-layer metrics that apply to the workload.
type workload interface {
	setUp(e *env) error
	tearDown()
	pass(e *env, i int) (passResult, error)
	claims(e *env) []claim
	traced(e *env) error
}

// coldRepeater is a workload whose passes are too long for a run to
// sample each cold request often: after the passes, repeatCold runs the
// requests alone, once a call, and the samples join the passes' own.
type coldRepeater interface {
	repeatCold(e *env) ([]coldSample, error)
}

// coldRepeats is how often a coldRepeater is asked: with a run's two
// passes, seven samples behind each request's median.
const coldRepeats = 5

// claim is one accuracy or contract statement checked on a run.
type claim struct {
	name string
	held bool
}

// env is the state of one workload run.
type env struct {
	def     workloadDef
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	start   time.Time

	rng    *rand.Rand
	golden *corpus
	tr     *tracer

	mu         sync.Mutex
	attempted  int
	failed     int
	mismatches int
	metrics    map[string]float64
	samples    map[string][]float64
	detail     []map[string]any
	claimsOut  []string // names of claims that did not hold
	errs       []string
}

func newEnv(def workloadDef, cfg runConfig, golden *corpus) *env {
	return &env{
		def: def, seed: cfg.seed, seconds: cfg.seconds, trace: cfg.trace, smoke: cfg.smoke,
		start:   time.Now(),
		rng:     rand.New(rand.NewSource(cfg.seed)),
		golden:  golden,
		metrics: map[string]float64{},
		samples: map[string][]float64{},
	}
}

// set records a metric; a metric set twice is a bug in the benchmark.
func (e *env) set(name string, v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.metrics[name]; dup {
		panic("benchmark: metric " + name + " set twice")
	}
	e.metrics[name] = v
}

// op counts one attempted operation and, when err is non-nil, one
// failure (the first few are kept for the record).
func (e *env) op(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if err != nil {
		e.failed++
		if len(e.errs) < 8 {
			e.errs = append(e.errs, err.Error())
		}
	}
}

// check verifies one simulated result against the golden corpus and
// counts the operation.
func (e *env) check(kind, key string, r *core.Result) {
	if !e.golden.match(kind, key, digest(r)) {
		e.mu.Lock()
		e.mismatches++
		e.mu.Unlock()
		e.op(fmt.Errorf("golden mismatch: %s %s", kind, key))
		return
	}
	e.op(nil)
}

func (e *env) addDetail(row map[string]any) {
	e.mu.Lock()
	e.detail = append(e.detail, row)
	e.mu.Unlock()
}

func (e *env) keep(name string, vs []float64) {
	e.mu.Lock()
	e.samples[name] = append([]float64(nil), vs...)
	e.mu.Unlock()
}

// scratchDir returns a fresh directory under outDir for this run.
func (e *env) scratchDir(tag string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, e.def.Name+"-"+tag+"-")
}

// ---- the generic run ----

const setUps = 3

// runWorkload runs one workload once, untraced or traced, and returns
// the result the driver reads.
func runWorkload(e *env) (*result, error) {
	w := e.def.new()
	var err error
	if e.trace {
		e.tr = newTracer()
		if err = w.setUp(e); err == nil {
			err = w.traced(e)
			w.tearDown()
		}
		if err == nil {
			e.set("bench.spans", float64(e.tr.len()))
			e.set("bench.fail_share", float64(e.failed)/math.Max(1, float64(e.attempted)))
			e.set("bench.golden_mismatches", float64(e.mismatches))
		}
	} else {
		err = e.measure(w)
	}
	if err != nil {
		return nil, err
	}
	return e.finish()
}

// measure is the untraced run: three set-ups (the median is setup_s),
// then passes of the fixed work until seconds have gone by.
func (e *env) measure(w workload) error {
	var setups []float64
	for i := 0; i < setUps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = e.start // the first set-up pays process start too
		}
		if err := w.setUp(e); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setUps-1 {
			w.tearDown()
		}
	}
	defer w.tearDown()
	e.keep("setup_s", setups)
	e.set("setup_s", median(setups))

	minPasses := 2
	if e.smoke {
		minPasses = 1
	}
	var wall, cpu, kips, jps []float64
	coldByID := map[string][]float64{}
	phase := time.Now()
	for i := 0; i < minPasses || time.Since(phase).Seconds() < e.seconds; i++ {
		c0, t0 := cpuSeconds(), time.Now()
		pr, err := w.pass(e, i)
		if err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		wall = append(wall, d)
		cpu = append(cpu, cpuSeconds()-c0)
		kips = append(kips, float64(pr.inst)/d/1e3)
		jps = append(jps, float64(pr.jobs)/d)
		for _, c := range pr.cold {
			coldByID[c.id] = append(coldByID[c.id], c.ms)
		}
	}
	if d := time.Since(phase); d >= phaseLimit {
		return fmt.Errorf("measured phase took %.1fs, limit %s: workload mis-sized for this host", d.Seconds(), phaseLimit)
	}
	if r, ok := w.(coldRepeater); ok {
		n := coldRepeats
		if e.smoke {
			n = 1
		}
		for i := 0; i < n; i++ {
			cs, err := r.repeatCold(e)
			if err != nil {
				return err
			}
			for _, c := range cs {
				coldByID[c.id] = append(coldByID[c.id], c.ms)
			}
		}
	}
	for _, s := range []struct {
		name string
		vs   []float64
	}{{"wall_s", wall}, {"cpu_s", cpu}, {"sim_kips", kips}, {"jobs_per_s", jps}} {
		e.keep(s.name, s.vs)
		e.set(s.name, median(s.vs))
	}
	if len(coldByID) == 0 {
		return fmt.Errorf("no cold-request latencies recorded")
	}
	var cold []float64
	for _, vs := range coldByID {
		cold = append(cold, median(vs))
	}
	e.keep("cold_ms", quartileSummary(cold))
	e.set("cold_p50_ms", quantile(cold, 0.50))
	e.set("cold_p90_ms", quantile(cold, 0.90))
	e.set("peak_rss_mb", peakRSSMB())
	e.set("claims_held", float64(e.countClaims(w.claims(e))))
	return nil
}

func (e *env) countClaims(cs []claim) int {
	n := 0
	for _, c := range cs {
		if c.held {
			n++
		} else {
			e.claimsOut = append(e.claimsOut, c.name)
		}
	}
	e.addDetail(map[string]any{"kind": "claims", "held": n, "of": len(cs), "not_held": e.claimsOut})
	return n
}

// ---- result and record ----

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish checks that exactly the declared metrics were set, fills the
// per-layer metrics that do not apply to this workload with 0, and
// writes the record.
func (e *env) finish() (*result, error) {
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	out := &result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v, ok := e.metrics[m.Name]
		switch {
		case m.appliesTo(e.def.Name) && !ok:
			return nil, fmt.Errorf("metric %s not emitted on %s", m.Name, e.def.Name)
		case !m.appliesTo(e.def.Name) && ok:
			return nil, fmt.Errorf("metric %s emitted on %s, where it does not apply", m.Name, e.def.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = metricValue{v, m.Unit}
		delete(e.metrics, m.Name)
	}
	for name := range e.metrics {
		return nil, fmt.Errorf("undeclared metric %s emitted", name)
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	out.Correct = e.failed == 0 && e.mismatches == 0
	if err := e.writeRecord(out); err != nil {
		return nil, err
	}
	return out, nil
}

// hostShape stamps every record; records of different shapes are never
// compared.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func thisHost() hostShape {
	h := hostShape{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func (e *env) recordBase() string {
	mode := "e2e"
	if e.trace {
		mode = "trace"
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-%s-seed%d", e.def.Name, mode, e.seed))
}

func (e *env) writeRecord(res *result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	quart := map[string]map[string]any{}
	for name, vs := range e.samples {
		q1, q2, q3 := quartiles(vs)
		quart[name] = map[string]any{"n": len(vs), "q1": q1, "median": q2, "q3": q3, "samples": vs}
	}
	rec := map[string]any{
		"workload": e.def.Name, "seed": e.seed, "seconds": e.seconds, "trace": e.trace, "smoke": e.smoke,
		"host": thisHost(), "time": time.Now().UTC().Format(time.RFC3339),
		"result": res, "timings": quart, "detail": e.detail, "errors": e.errs,
	}
	if e.tr != nil {
		rec["span_self_ms"] = e.tr.selfTimes()
		if err := e.tr.writeChrome(e.recordBase() + ".trace.json"); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.recordBase()+".json", raw, 0o644)
}

// printResult writes every metric by name with its unit, then the JSON
// line the driver parses.
func printResult(w io.Writer, e *env, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d trace=%t attempted=%d failed=%d golden_mismatches=%d\n",
		e.def.Name, e.seed, e.trace, res.Attempted, res.Failed, e.mismatches)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, c := range e.claimsOut {
		fmt.Fprintf(w, "# claim not held: %s\n", c)
	}
	for _, s := range e.errs {
		fmt.Fprintf(w, "# error: %s\n", s)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// ---- measurement helpers ----

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank quantile of vs (0 for no samples).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles follows Python's statistics.quantiles(vs, n=4) (exclusive
// method), which is what the driver computes spreads with.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sorted(vs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// quartileSummary compresses a long sample list to what the record
// keeps: min, q1, median, q3, max and the count.
func quartileSummary(vs []float64) []float64 {
	s := sorted(vs)
	q1, q2, q3 := quartiles(s)
	return []float64{s[0], q1, q2, q3, s[len(s)-1], float64(len(s))}
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memDelta is the runtime pseudo-layer: allocator and GC work done
// between two runtime.MemStats readings.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) emit(e *env, inst uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	kinst := math.Max(1, float64(inst)/1e3)
	e.set("runtime.mallocs_per_kinst", float64(after.Mallocs-m.before.Mallocs)/kinst)
	e.set("runtime.alloc_bytes_per_inst", float64(after.TotalAlloc-m.before.TotalAlloc)/math.Max(1, float64(inst)))
	e.set("runtime.gc_count", float64(after.NumGC-m.before.NumGC))
	e.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-m.before.PauseTotalNs)/1e6)
}

// resultStats folds Results into the exact-count layer metrics: rates
// of the modelled machine, which a speed-only change must not move.
type resultStats struct {
	inst, loads, l1Miss, l2Miss, retries, remote, inval, msgs uint64
	cycles                                                    int64
	useful, slots                                             float64
}

func (s *resultStats) add(r *core.Result) {
	ms := &r.MemStats
	s.inst += r.Committed
	s.cycles += r.Cycles
	s.loads += ms.Loads
	s.l1Miss += ms.Loads - ms.ByClass[coherence.L1Hit] - ms.ByClass[coherence.MSHRMerge]
	s.l2Miss += ms.ByClass[coherence.LocalMem] + ms.ByClass[coherence.RemoteMem] + ms.ByClass[coherence.RemoteL2]
	s.remote += ms.ByClass[coherence.RemoteMem] + ms.ByClass[coherence.RemoteL2]
	s.retries += ms.LoadRetries
	s.inval += r.Invalidations
	s.msgs += r.NetMessages
	s.useful += r.Slots.Counts[stats.Useful]
	for _, c := range r.Slots.Counts {
		s.slots += c
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (s *resultStats) emit(e *env) {
	e.set("memsys.l1_miss_rate", ratio(float64(s.l1Miss), float64(s.loads)))
	e.set("memsys.l2_miss_rate", ratio(float64(s.l2Miss), float64(s.l1Miss)))
	e.set("memsys.load_retry_rate", ratio(float64(s.retries), float64(s.loads)))
	e.set("coherence.remote_share", ratio(float64(s.remote), float64(s.loads)))
	e.set("coherence.invalidations_per_kinst", ratio(float64(s.inval)*1e3, float64(s.inst)))
	e.set("interconnect.messages_per_kinst", ratio(float64(s.msgs)*1e3, float64(s.inst)))
	e.set("stats.useful_slot_share", ratio(s.useful, s.slots))
}
