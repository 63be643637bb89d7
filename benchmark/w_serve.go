package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"clustersmt"
	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/service"
	"clustersmt/internal/telemetry"
	"clustersmt/internal/workloads"
)

// serveWorkload is serve-mixed: an in-process clusterd (service.New
// with a disk tier) behind a loopback httptest listener, driven closed
// loop by nproc clients — callers of clusterd (sweep scripts, figure
// endpoints, the coordinator) each wait for a reply, so a closed loop
// is the honest model — through a seeded job stream, a block of it per
// pass: cold jobs (never-seen synth specs: POST -> 202 -> GET ?wait=),
// hot jobs (the pre-submitted paper cells, 200 inline from the memory
// tier) and revisits (a cold spec from at least revisitGap cold jobs
// earlier, evicted from the LRU, served from the disk tier and
// promoted). Fabric (coordinator + workers) is not measured: a fleet in
// one process on two CPUs measures the scheduler.
type serveWorkload struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	dir    string
	hot    []service.JobSpec
	stream *jobStream
	block  int // jobs per pass
	// seedOneStream: the stream is seed 1's at full scale, whose first
	// cold jobs the golden corpus holds.
	seedOneStream bool

	mu         sync.Mutex
	lat        map[jobKind][]float64 // client submit->result, ms
	coldLat    []coldSample
	submitMS   []float64 // cold jobs' POST
	waitMS     []float64 // cold jobs' GET ?wait=
	respBytes  []float64
	gaps       []float64 // sampled: client latency - server span extent, ms
	serverE2E  []float64
	firstRaw   map[int][32]byte // cold index -> hash of its first result body
	coldRes    map[int]*core.Result
	contract   map[string]bool // service-contract observations, true until broken
	aliasHit   bool
	jobs       map[jobKind]int
	inst       uint64 // instructions committed by cold jobs so far
	sampleNext int
}

type jobKind int

const (
	jobHot jobKind = iota
	jobCold
	jobRevisit
)

// Stream shape. The stream is dealt from shuffled decks rather than
// drawn independently, so that every block of it holds the same number
// of jobs of each kind and the same spread of machines and footprints
// whatever the seed: the seed decides order and knobs, not how much
// work a block is.
const (
	kindDeck     = 20 // jobs per deck of kinds:
	hotPerDeck   = 9  // 45% hot,
	coldPerDeck  = 9  // 45% cold,
	cacheEntries = service.DefaultCacheEntries
	// (the other 10% revisits, dealt as cold until there is something to
	// revisit.) revisitGap cold insertions (plus the hot set, touched
	// all along) push an entry out of the cacheEntries-deep LRU.
	revisitGap      = cacheEntries + 4
	smokeCacheCap   = 8
	fullBlock       = 500
	smokeBlock      = 40
	traceSampleEach = 10 // fetch the daemon's spans for every n-th cold job
)

var coldFootprintsKB = []int{16, 64, 512}

type job struct {
	n    int
	kind jobKind
	spec service.JobSpec
	cold int // index into the cold list (cold and revisit)
}

// jobStream generates the seeded job list lazily; next is safe for
// concurrent clients and hands jobs out in stream order.
type jobStream struct {
	mu      sync.Mutex
	rng     *rand.Rand
	hot     []service.JobSpec
	cold    []service.JobSpec
	seen    map[service.JobSpec]bool
	kinds   []jobKind // the rest of the current deck of kinds
	shapes  []int     // the rest of the current deck of arch x machine x footprint
	revisit int
	gap     int
	n       int
}

func newJobStream(seed int64, hot []service.JobSpec, gap int) *jobStream {
	return &jobStream{rng: rand.New(rand.NewSource(seed*7919 + 17)), hot: hot, seen: map[service.JobSpec]bool{}, gap: gap}
}

func (s *jobStream) next() job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.kinds) == 0 {
		for i := 0; i < kindDeck; i++ {
			switch {
			case i < hotPerDeck:
				s.kinds = append(s.kinds, jobHot)
			case i < hotPerDeck+coldPerDeck:
				s.kinds = append(s.kinds, jobCold)
			default:
				s.kinds = append(s.kinds, jobRevisit)
			}
		}
		s.rng.Shuffle(len(s.kinds), func(i, j int) { s.kinds[i], s.kinds[j] = s.kinds[j], s.kinds[i] })
	}
	j := job{n: s.n, kind: s.kinds[0]}
	s.kinds = s.kinds[1:]
	s.n++
	switch {
	case j.kind == jobHot:
		j.spec = s.hot[s.rng.Intn(len(s.hot))]
	case j.kind == jobRevisit && s.revisit+s.gap <= len(s.cold):
		j.cold, j.spec = s.revisit, s.cold[s.revisit]
		s.revisit++
	default:
		j.kind, j.cold, j.spec = jobCold, len(s.cold), s.newCold()
	}
	return j
}

// newCold deals the next (arch, machine, footprint) and draws the
// (threads x ILP) knobs for a synth spec the stream has not produced
// before.
func (s *jobStream) newCold() service.JobSpec {
	pick := func(vs ...int) int { return vs[s.rng.Intn(len(vs))] }
	if len(s.shapes) == 0 {
		s.shapes = s.rng.Perm(len(config.AllArchs) * 2 * len(coldFootprintsKB))
	}
	shape := s.shapes[0]
	s.shapes = s.shapes[1:]
	arch := config.AllArchs[shape%len(config.AllArchs)]
	shape /= len(config.AllArchs)
	for {
		syn := workloads.SyntheticSpec{
			ParCap: pick(0, 2, 4), ChainLen: s.rng.Intn(9), IndepOps: s.rng.Intn(7), MemOps: 1 + s.rng.Intn(3),
			FootprintKB: coldFootprintsKB[shape/2], Iters: int64(pick(160, 192, 224, 256)), SerialIters: int64(pick(0, 32)), Steps: 2,
		}
		spec := service.JobSpec{App: workloads.Synthetic(syn).Name, Arch: arch.Name, HighEnd: shape%2 == 1}
		if !s.seen[spec] {
			s.seen[spec] = true
			s.cold = append(s.cold, spec)
			return spec
		}
	}
}

// hotCells are the 42 paper cells at test size, alternating machines.
func hotCells() []service.JobSpec {
	var hot []service.JobSpec
	for _, a := range workloads.All() {
		for _, ar := range config.AllArchs {
			hot = append(hot, service.JobSpec{App: a.Name, Arch: ar.Name, HighEnd: len(hot)%2 == 1})
		}
	}
	return hot
}

func specMachine(s service.JobSpec) config.Machine {
	a, _ := config.ArchByName(s.Arch)
	if s.HighEnd {
		return config.HighEnd(a)
	}
	return config.LowEnd(a)
}

func (w *serveWorkload) setUp(e *env) error {
	if err := e.loadGolden(); err != nil {
		return err
	}
	w.hot, w.block = hotCells(), fullBlock
	opts := service.Options{DefaultSize: workloads.SizeTest, CacheEntries: cacheEntries}
	gap := revisitGap
	if e.smoke {
		w.hot, w.block = w.hot[:4], smokeBlock
		opts.CacheEntries, gap = smokeCacheCap, smokeCacheCap+2
	}
	w.seedOneStream = e.seed == 1 && !e.smoke
	return w.start(e, opts, newJobStream(e.seed, w.hot, gap))
}

// start brings up a daemon with opts over a fresh cache directory,
// resets the clients' books, and warms the hot set: every paper cell
// simulated once and cached, none of it measured.
func (w *serveWorkload) start(e *env, opts service.Options, stream *jobStream) error {
	dir, err := e.scratchDir("cache")
	if err != nil {
		return err
	}
	w.dir, opts.CacheDir = dir, dir
	if w.srv, err = service.New(opts); err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * runtime.GOMAXPROCS(0)}}
	w.stream = stream
	w.firstRaw = map[int][32]byte{}
	w.coldRes = map[int]*core.Result{}
	w.contract = map[string]bool{"hot answered inline from the cache": true,
		"revisit answered inline from the disk tier": true, "cold queued, then simulated": true,
		"revisit byte-identical to the first response": true}
	w.inst, w.sampleNext = 0, 0
	w.lat, w.jobs = map[jobKind][]float64{}, map[jobKind]int{}

	var firstErr error
	forEach(len(w.hot), runtime.GOMAXPROCS(0), func(i, _ int) {
		if _, err := w.do(e, job{n: -1, kind: jobCold, cold: -1, spec: w.hot[i]}, 0, false); err != nil {
			firstErr = err
		}
	})
	if firstErr != nil {
		return firstErr
	}
	// FA8 and SMT8 are one physical configuration: one content hash.
	alias := w.hot[0]
	for _, h := range w.hot {
		if h.Arch == "FA8" {
			alias = h
			alias.Arch = "SMT8"
			break
		}
	}
	v, err := w.do(e, job{n: -1, kind: jobHot, spec: alias}, 0, false)
	w.aliasHit = err == nil && v.CacheHit
	w.lat, w.coldLat, w.jobs = map[jobKind][]float64{}, nil, map[jobKind]int{}
	w.submitMS, w.waitMS, w.respBytes, w.gaps, w.serverE2E = nil, nil, nil, nil, nil
	return err
}

func (w *serveWorkload) tearDown() {
	if w.ts == nil {
		return
	}
	w.client.CloseIdleConnections()
	w.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = w.srv.Close(ctx)
	cancel()
	_ = os.RemoveAll(w.dir)
	w.ts = nil
}

// wireJob is clusterd's job view as the client reads it.
type wireJob struct {
	ID        string          `json:"id"`
	TraceID   string          `json:"trace_id"`
	Status    string          `json:"status"`
	CacheHit  bool            `json:"cache_hit"`
	CacheTier string          `json:"cache_tier"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
}

func (w *serveWorkload) roundTrip(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// do submits one job and waits for its result, the way a caller of
// clusterd does; it verifies the result and records the latency. The
// clock stops when the final response body has been read.
func (w *serveWorkload) do(e *env, j job, lane int, traced bool) (*wireJob, error) {
	id := fmt.Sprintf("job %d", j.n)
	var tr *tracer // nil records nothing
	if traced {
		tr = e.tr
	}
	root := tr.begin("bench.job", id, -1, lane)
	defer tr.end(root)
	body, _ := json.Marshal(j.spec)
	t0 := time.Now()
	var status int
	var raw []byte
	var err error
	submitted := tr.timed("http.submit", id, root, lane, func() {
		status, raw, err = w.roundTrip(http.MethodPost, w.ts.URL+"/v1/jobs", body)
	})
	var v wireJob
	fail := func(err error) (*wireJob, error) {
		err = fmt.Errorf("%s %v: %w", id, j.spec, err)
		e.op(err)
		return &v, err
	}
	if err != nil {
		return fail(err)
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return fail(fmt.Errorf("POST /v1/jobs: HTTP %d: %s", status, bytes.TrimSpace(raw)))
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return fail(err)
	}
	var waited time.Duration
	if status == http.StatusAccepted {
		waited = tr.timed("http.wait", id, root, lane, func() {
			status, raw, err = w.roundTrip(http.MethodGet, w.ts.URL+"/v1/jobs/"+v.ID+"?wait=60s", nil)
		})
		if err != nil {
			return fail(err)
		}
		if status != http.StatusOK {
			return fail(fmt.Errorf("GET job: HTTP %d", status))
		}
		v = wireJob{}
		if err := json.Unmarshal(raw, &v); err != nil {
			return fail(err)
		}
	}
	latency := time.Since(t0)
	if v.Status != service.StateDone || len(v.Result) == 0 {
		return fail(fmt.Errorf("status %q: %s", v.Status, v.Error))
	}
	var res core.Result
	if err := json.Unmarshal(v.Result, &res); err != nil {
		return fail(err)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	w.lat[j.kind] = append(w.lat[j.kind], ms(latency))
	w.jobs[j.kind]++
	w.respBytes = append(w.respBytes, float64(len(raw)))
	switch j.kind {
	case jobHot:
		// Almost always the memory tier; a paper cell the stream left
		// alone for a few hundred jobs comes back from the disk tier.
		w.hold("hot answered inline from the cache", waited == 0 && v.CacheHit)
		e.check(kCell, cellKey(workloads.SizeTest, specMachine(j.spec), j.spec.App), &res)
	case jobCold:
		w.hold("cold queued, then simulated", waited > 0 && !v.CacheHit)
		w.coldLat = append(w.coldLat, coldSample{id, ms(latency)})
		w.submitMS = append(w.submitMS, ms(submitted))
		w.waitMS = append(w.waitMS, ms(waited))
		switch key := strconv.Itoa(j.cold); {
		case j.cold < 0: // the hot set being warmed
			e.check(kCell, cellKey(workloads.SizeTest, specMachine(j.spec), j.spec.App), &res)
		case w.seedOneStream && (e.golden.has(kJob, key) || e.golden.update && j.cold < goldenJobs):
			e.check(kJob, key, &res)
		default:
			e.op(nil) // verified by sample against a direct Simulate in verifySample
		}
		if j.cold >= 0 {
			w.firstRaw[j.cold] = sha256.Sum256(v.Result)
			w.coldRes[j.cold] = &res
			w.inst += res.Committed
		}
	case jobRevisit:
		w.hold("revisit answered inline from the disk tier", waited == 0 && v.CacheHit && v.CacheTier == service.TierDisk)
		same := w.firstRaw[j.cold] == sha256.Sum256(v.Result)
		w.hold("revisit byte-identical to the first response", same)
		if same {
			e.op(nil)
		} else {
			e.op(fmt.Errorf("%s: revisit differs from the first response", id))
		}
	}
	if traced && j.kind == jobCold && j.cold >= 0 {
		if w.sampleNext++; w.sampleNext%traceSampleEach == 0 {
			w.sampleServerSpans(e, v.TraceID, latency, id, root, lane)
		}
	}
	return &v, nil
}

func (w *serveWorkload) hold(name string, ok bool) {
	if !ok {
		w.contract[name] = false
	}
}

// sampleServerSpans fetches the daemon's own spans for one job and
// records their extent beside the client's latency: the cross-check of
// the two views, and what HTTP and the codec cost between them.
func (w *serveWorkload) sampleServerSpans(e *env, traceID string, client time.Duration, id string, parent, lane int) {
	var raw []byte
	var status int
	var err error
	e.tr.timed("http.trace", id, parent, lane, func() {
		status, raw, err = w.roundTrip(http.MethodGet, w.ts.URL+"/v1/trace/"+traceID+"?format=spans&scope=local", nil)
	})
	var view struct {
		Spans []telemetry.Span `json:"spans"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(raw, &view) != nil || len(view.Spans) == 0 {
		return // the span ring wrapped first; telemetry.spans_dropped says how often
	}
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, s := range view.Spans {
		lo = min(lo, s.StartUS)
		hi = max(hi, s.StartUS+s.DurUS)
	}
	server := float64(hi-lo) / 1e3
	w.serverE2E = append(w.serverE2E, server)
	w.gaps = append(w.gaps, ms(client)-server)
}

func (w *serveWorkload) runBlock(e *env, traced bool) (passResult, error) {
	var pr passResult
	w.mu.Lock()
	coldBefore, instBefore := len(w.coldLat), w.inst
	w.mu.Unlock()
	var mu sync.Mutex
	var firstErr error
	forEach(w.block, runtime.GOMAXPROCS(0), func(_, lane int) {
		j := w.stream.next()
		if _, err := w.do(e, j, lane, traced); err != nil {
			mu.Lock()
			firstErr = err
			mu.Unlock()
		}
	})
	if firstErr != nil {
		return pr, firstErr
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	pr.jobs = w.block
	pr.cold = append(pr.cold, w.coldLat[coldBefore:]...)
	pr.inst = w.inst - instBefore
	return pr, nil
}

func (w *serveWorkload) pass(e *env, _ int) (passResult, error) { return w.runBlock(e, false) }

// verifySample re-simulates one in twenty cold jobs directly (no
// service in between) and compares digests: the check for seeds whose
// jobs the golden corpus does not hold.
func (w *serveWorkload) verifySample(e *env) {
	for i, spec := range w.stream.cold {
		got, done := w.coldRes[i]
		if !done || i%20 != 0 || (w.seedOneStream && e.golden.has(kJob, strconv.Itoa(i))) {
			continue
		}
		want, err := clustersmt.Simulate(specMachine(spec), spec.App, workloads.SizeTest)
		if err == nil && digest(want) != digest(got) {
			err = fmt.Errorf("cold job %d %v: served result differs from a direct Simulate", i, spec)
		}
		e.op(err)
	}
}

// claims: the service contract as a caller sees it.
func (w *serveWorkload) claims(e *env) []claim {
	w.verifySample(e)
	m, _, _ := w.scrape()
	var cs []claim
	for name, ok := range w.contract {
		cs = append(cs, claim{"serve: " + name, ok})
	}
	cs = append(cs,
		claim{"serve: an SMT8 submission hits the FA8 entry", w.aliasHit},
		claim{"serve: nothing rejected", m["clusterd_jobs_rejected_total"] == 0},
		claim{"serve: one simulation per distinct spec", int(m["clusterd_simulations_total"]) == len(w.coldRes)+len(w.hot)},
		claim{"serve: the daemon counts the cache hits the clients saw (and the alias probe)",
			int(m[`clusterd_cache_hits_total{tier="memory"}`]+m[`clusterd_cache_hits_total{tier="disk"}`]) == w.jobs[jobHot]+w.jobs[jobRevisit]+1},
		claim{"serve: every revisit is a disk hit", int(m[`clusterd_cache_hits_total{tier="disk"}`]) >= w.jobs[jobRevisit]},
	)
	return cs
}

// ---- /metrics ----

// scrapeText is one OpenMetrics scrape, as sample name (labels
// included, counters with their _total suffix) -> value.
type scrapeText map[string]float64

func (w *serveWorkload) scrape() (scrapeText, time.Duration, int) {
	t0 := time.Now()
	_, raw, err := w.roundTrip(http.MethodGet, w.ts.URL+"/metrics", nil)
	d := time.Since(t0)
	out := scrapeText{}
	if err != nil {
		return out, d, 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, d, len(raw)
}

// histQuantile estimates quantile q of a scraped histogram family the
// way telemetry.Histogram.Quantile does: linear within the bucket that
// holds the rank. labels is the label prefix inside the braces ("" or
// `policy="static",`).
func (s scrapeText) histQuantile(family, labels string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := family + "_bucket{" + labels + `le="`
	for name, v := range s {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err == nil {
				bs = append(bs, bucket{le, v})
			}
		}
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum
	rank := math.Ceil(q * total)
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank && b.cum > prev {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}

// ---- traced run ----

func (w *serveWorkload) traced(e *env) error {
	// Blocks of the stream, untraced and traced in turn (the stream's
	// mix drifts as revisits come in, so the two are interleaved).
	instBefore := w.inst
	mem := startMem()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	var walls [2][]float64
	phase := time.Now()
	for i := 0; i < 2 || time.Since(phase).Seconds() < e.seconds*0.6; i++ {
		t0 := time.Now()
		if _, err := w.runBlock(e, i%2 == 1); err != nil {
			return err
		}
		walls[i%2] = append(walls[i%2], time.Since(t0).Seconds())
	}
	if err := prof.stop(e); err != nil {
		return err
	}
	var stats resultStats
	for _, r := range w.coldRes {
		stats.add(r)
	}
	mem.emit(e, w.inst-instBefore)
	stats.emit(e)
	e.keep("traced_wall_s", walls[1])
	e.set("bench.trace_overhead_pct", 100*(median(walls[1])/median(walls[0])-1))

	e.set("service.hot_p50_ms", quantile(w.lat[jobHot], 0.50))
	e.set("service.hot_p99_ms", quantile(w.lat[jobHot], 0.99))
	e.set("service.cold_p99_ms", quantile(w.lat[jobCold], 0.99))
	e.set("service.disk_hit_p50_ms", quantile(w.lat[jobRevisit], 0.50))
	e.set("service.submit_p50_ms", quantile(w.submitMS, 0.50))
	e.set("service.wait_p50_ms", quantile(w.waitMS, 0.50))
	e.set("service.resp_bytes", median(w.respBytes))
	e.set("service.server_e2e_p50_ms", median(w.serverE2E))
	e.set("service.client_server_gap_ms", median(w.gaps))
	e.keep("client_server_gap_ms", w.gaps)

	var scrapes []float64
	var m scrapeText
	var size int
	for i := 0; i < 5; i++ {
		var d time.Duration
		e.tr.timed("http.scrape", "GET /metrics", -1, 0, func() { m, d, size = w.scrape() })
		scrapes = append(scrapes, ms(d))
	}
	e.set("telemetry.scrape_ms", median(scrapes))
	e.set("telemetry.scrape_bytes", float64(size))
	e.set("telemetry.spans_dropped", m["clusterd_trace_spans_dropped_total"])
	e.set("service.queue_wait_p50_ms", 1e3*m.histQuantile("clusterd_job_queue_wait_seconds", "", 0.5))
	e.set("service.simulate_p50_ms", 1e3*m.histQuantile("clusterd_simulate_seconds", `policy="static",`, 0.5))
	e.set("service.mem_hits", m[`clusterd_cache_hits_total{tier="memory"}`])
	e.set("service.disk_hits", m[`clusterd_cache_hits_total{tier="disk"}`])
	e.set("service.rejected", m["clusterd_jobs_rejected_total"])

	w.verifySample(e)
	if err := w.layerProbes(e); err != nil {
		return err
	}
	return w.telemetryOverhead(e)
}

// layerProbes times the service's building blocks directly.
func (w *serveWorkload) layerProbes(e *env) error {
	// workloads: building the cold specs' programs.
	for i, spec := range w.stream.cold {
		if i >= 40 {
			break
		}
		wl, err := workloads.ByName(spec.App)
		if err != nil {
			return err
		}
		m := specMachine(spec)
		e.tr.timed("workloads.Build", spec.App, -1, 0, func() { wl.Build(m.Threads(), m.Chips, workloads.SizeTest) })
	}
	e.set("workloads.build_ms", median(e.tr.durations("workloads.Build")))

	// config: the canonical machine hash behind every job's cache key.
	m := config.HighEnd(config.SMT2)
	const hashes = 20000
	d := e.tr.timed("config.Machine.Hash", m.Name, -1, 0, func() {
		for i := 0; i < hashes; i++ {
			m.Hash()
		}
	})
	e.set("config.hash_ns", float64(d)/hashes)

	// service: the two-tier cache without HTTP around it.
	dir, err := e.scratchDir("probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := service.NewCache(cacheEntries, dir)
	if err != nil {
		return err
	}
	var keys [][32]byte
	for i, r := range w.coldRes {
		if len(keys) == 64 {
			break
		}
		rj, err := w.stream.cold[i].Resolve(workloads.SizeTest)
		if err != nil {
			return err
		}
		key := rj.Hash()
		e.tr.timed("service.Cache.Put", rj.Spec.App, -1, 0, func() { err = cache.Put(key, rj.Spec, r) })
		if err != nil {
			return err
		}
		keys = append(keys, key)
	}
	e.set("service.cache_put_ms", median(e.tr.durations("service.Cache.Put")))
	const gets = 2000
	d = e.tr.timed("service.Cache.Get(memory)", "", -1, 0, func() {
		for i := 0; i < gets; i++ {
			cache.Get(keys[i%len(keys)])
		}
	})
	e.set("service.cache_get_mem_ns", float64(d)/gets)
	reopened, err := service.NewCache(cacheEntries, dir) // empty LRU over the same files
	if err != nil {
		return err
	}
	for _, k := range keys {
		e.tr.timed("service.Cache.Get(disk)", "", -1, 0, func() { reopened.Get(k) })
	}
	e.set("service.cache_get_disk_ms", median(e.tr.durations("service.Cache.Get(disk)")))
	return nil
}

// telemetryOverhead runs the same short job list against a daemon
// with telemetry on and one with DisableTelemetry.
func (w *serveWorkload) telemetryOverhead(e *env) error {
	var wall [2]float64
	for i, disabled := range []bool{false, true} {
		probe := &serveWorkload{hot: w.hot, block: w.block}
		opts := service.Options{DefaultSize: workloads.SizeTest, DisableTelemetry: disabled}
		if err := probe.start(e, opts, newJobStream(e.seed+1000, w.hot, revisitGap)); err != nil {
			probe.tearDown()
			return err
		}
		t0 := time.Now()
		_, err := probe.runBlock(e, false)
		wall[i] = time.Since(t0).Seconds()
		probe.tearDown()
		if err != nil {
			return err
		}
	}
	e.set("telemetry.overhead_pct", 100*(wall[0]/wall[1]-1))
	return nil
}
