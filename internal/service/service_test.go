package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersmt/internal/core"
	"clustersmt/internal/workloads"
)

// wireJob mirrors jobView with the result kept raw, so tests can
// compare the result JSON byte-for-byte.
type wireJob struct {
	ID        string          `json:"id"`
	Spec      JobSpec         `json:"spec"`
	Hash      string          `json:"hash"`
	Status    string          `json:"status"`
	CacheHit  bool            `json:"cache_hit"`
	CacheTier string          `json:"cache_tier"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	opts.DefaultSize = workloads.SizeTest
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, spec JobSpec) (int, wireJob, http.Header) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j wireJob
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp.StatusCode, j, resp.Header
}

func waitJob(t *testing.T, ts *httptest.Server, id string) wireJob {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=2s")
		if err != nil {
			t.Fatal(err)
		}
		var j wireJob
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if j.Status == StateDone || j.Status == StateFailed {
			return j
		}
	}
	t.Fatalf("job %s did not finish in time", id)
	return wireJob{}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceCachedResubmissionBitIdentical is the acceptance test's
// first half: resubmitting an identical job spec is served from the
// cache, marked as a hit, and the result JSON is bit-identical to the
// first run's.
func TestServiceCachedResubmissionBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	spec := JobSpec{App: "mgrid", Arch: "SMT2"}
	status, first, _ := submit(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("first submission: status %d, want 202", status)
	}
	first = waitJob(t, ts, first.ID)
	if first.Status != StateDone {
		t.Fatalf("first job did not complete: %+v", first)
	}
	if first.CacheHit {
		t.Fatal("first run of a spec reported a cache hit")
	}
	if len(first.Result) == 0 {
		t.Fatal("first job has no result")
	}

	// Resubmit the identical spec: instant completion, cache-hit marker,
	// bit-identical result payload.
	status, second, _ := submit(t, ts, spec)
	if status != http.StatusOK {
		t.Fatalf("cached resubmission: status %d, want 200 (instant)", status)
	}
	if second.Status != StateDone || !second.CacheHit || second.CacheTier != TierMemory {
		t.Fatalf("cached resubmission not served from memory: %+v", second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cached result not bit-identical:\n%s\nvs\n%s", first.Result, second.Result)
	}
	if first.Hash != second.Hash {
		t.Fatalf("identical specs hashed differently: %s vs %s", first.Hash, second.Hash)
	}

	// FA8 and SMT8 are the same silicon: same content hash, same cache
	// entry, instant service.
	status8, fa8, _ := submit(t, ts, JobSpec{App: "mgrid", Arch: "FA8"})
	if status8 != http.StatusAccepted {
		t.Fatalf("FA8 submission: status %d", status8)
	}
	fa8 = waitJob(t, ts, fa8.ID)
	status8, smt8, _ := submit(t, ts, JobSpec{App: "mgrid", Arch: "SMT8"})
	if status8 != http.StatusOK || !smt8.CacheHit {
		t.Fatalf("SMT8 did not hit FA8's cache entry: status %d, %+v", status8, smt8)
	}
	if !bytes.Equal(fa8.Result, smt8.Result) {
		t.Fatal("FA8/SMT8 shared entry differs")
	}
}

// TestServiceBackpressure is the acceptance test's second half: with
// one gated worker and a 2-slot queue, a burst beyond capacity gets
// 429 + Retry-After while every admitted job completes.
func TestServiceBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, QueueCap: 2})
	gate := make(chan struct{})
	srv.pool.gate = gate

	specs := []JobSpec{
		{App: "swim", Arch: "FA8"},
		{App: "swim", Arch: "FA4"},
		{App: "swim", Arch: "FA2"},
		{App: "swim", Arch: "FA1"},
		{App: "swim", Arch: "SMT2"},
		{App: "swim", Arch: "SMT4"},
	}

	// First submission is picked up by the (gated) worker; wait until it
	// leaves the queue so admission counts are deterministic.
	status, j0, _ := submit(t, ts, specs[0])
	if status != http.StatusAccepted {
		t.Fatalf("job 0: status %d", status)
	}
	waitDepth := time.Now().Add(10 * time.Second)
	for srv.pool.Depth() != 0 {
		if time.Now().After(waitDepth) {
			t.Fatal("worker never picked up job 0")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue (cap 2) now takes exactly two more; the rest bounce.
	admitted := []string{j0.ID}
	var rejected int
	for _, spec := range specs[1:] {
		status, j, hdr := submit(t, ts, spec)
		switch status {
		case http.StatusAccepted:
			admitted = append(admitted, j.ID)
		case http.StatusTooManyRequests:
			rejected++
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("burst submission: unexpected status %d", status)
		}
	}
	if len(admitted) != 3 || rejected != 3 {
		t.Fatalf("admission control: admitted %d rejected %d, want 3/3", len(admitted), rejected)
	}

	close(gate) // release the worker
	for _, id := range admitted {
		j := waitJob(t, ts, id)
		if j.Status != StateDone {
			t.Fatalf("admitted job %s ended %q (%s)", id, j.Status, j.Error)
		}
	}

	// After the drain, new submissions are admitted again.
	status, j, _ := submit(t, ts, JobSpec{App: "swim", Arch: "SMT1"})
	if status != http.StatusAccepted {
		t.Fatalf("post-burst submission: status %d", status)
	}
	if j = waitJob(t, ts, j.ID); j.Status != StateDone {
		t.Fatalf("post-burst job failed: %+v", j)
	}
}

// TestServiceConcurrentIdenticalSubmissions races many submissions of
// one spec: the singleflight beneath the cache must simulate once, and
// every completed job must carry the same result bytes.
func TestServiceConcurrentIdenticalSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueCap: 32})
	spec := JobSpec{App: "vpenta", Arch: "FA4"}

	const n = 8
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, j, _ := submit(t, ts, spec)
			if status == http.StatusAccepted || status == http.StatusOK {
				ids[i] = j.ID
			}
		}(i)
	}
	wg.Wait()

	var ref []byte
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission was rejected despite queue capacity")
		}
		j := waitJob(t, ts, id)
		if j.Status != StateDone {
			t.Fatalf("job %s: %q (%s)", id, j.Status, j.Error)
		}
		if ref == nil {
			ref = j.Result
		} else if !bytes.Equal(ref, j.Result) {
			t.Fatalf("job %s result differs from first", id)
		}
	}
}

// TestServiceDiskCacheSurvivesRestart runs a job under server A with a
// disk store, shuts A down gracefully (closing its log), then
// boots server B on the same directory: the same spec must be served
// instantly from the disk tier with identical result bytes.
func TestServiceDiskCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{App: "tomcatv", Arch: "SMT2"}

	srvA, err := New(Options{DefaultSize: workloads.SizeTest, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	status, j, _ := submit(t, tsA, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submission on A: status %d", status)
	}
	first := waitJob(t, tsA, j.ID)
	if first.Status != StateDone {
		t.Fatalf("job on A failed: %+v", first)
	}
	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srvA.Close(ctx); err != nil {
		t.Fatalf("graceful close: %v", err)
	}

	srvB, err := New(Options{DefaultSize: workloads.SizeTest, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	defer srvB.Close(context.Background())
	if recs := logOnly(t, dir, 1); fmt.Sprintf("%x", recs[0].key) != first.Hash {
		t.Fatalf("the one record is keyed %x, want the job's hash %s", recs[0].key, first.Hash)
	}

	status, second, _ := submit(t, tsB, spec)
	if status != http.StatusOK {
		t.Fatalf("resubmission on B: status %d, want 200 (instant)", status)
	}
	if !second.CacheHit || second.CacheTier != TierDisk {
		t.Fatalf("resubmission on B not a disk hit: %+v", second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("disk round trip changed the result JSON")
	}
}

// TestServiceBadRequests pins the submission-time error paths.
func TestServiceBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []JobSpec{
		{App: "nonesuch", Arch: "SMT2"},
		{App: "swim", Arch: "XJ9"},
		{App: "swim", Arch: "SMT2", Size: "huge"},
	} {
		status, _, _ := submit(t, ts, tc)
		if status != http.StatusBadRequest {
			t.Fatalf("%+v: status %d, want 400", tc, status)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/figures/6")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("figure 6: status %d, want 404", resp.StatusCode)
	}
}

// TestServiceUnknownField: a job field the spec does not have is a 400
// naming it, not a job run on a machine other than the one asked for
// ("highend" is not "high_end", and would have run low-end).
func TestServiceUnknownField(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"app":"mgrid","arch":"SMT2","highend":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, `"highend"`) {
		t.Fatalf("misspelled field: status %d, error %q (%v); want 400 naming \"highend\"", resp.StatusCode, body.Error, err)
	}
}

// TestServiceTrailingData: a body is one JSON object. A second value or
// stray bytes after it are a 400, not a job run on the first object
// alone; trailing whitespace is fine.
func TestServiceTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, body := range []string{
		`{"app":"ocean","arch":"SMT2"}{"app":"fmm"}`,
		`{"app":"ocean","arch":"SMT2"} xyz`,
		`{"app":"ocean","arch":"SMT2"}}`,
	} {
		if status := post(body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, status)
		}
	}
	if status := post("{\"app\":\"ocean\",\"arch\":\"SMT2\"}\n \t\n"); status != http.StatusAccepted {
		t.Errorf("trailing whitespace: status %d, want 202", status)
	}
}

// TestServiceOversizedBody checks that a POST body past the bound is
// answered 413 — whether the excess is one huge value, padding before
// the object or whitespace after it — and that the daemon then takes a
// valid submission as if nothing happened.
func TestServiceOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"huge value": `{"app":"` + strings.Repeat("a", maxRequestBodyBytes) + `"}`,
		"padding":    strings.Repeat(" ", maxRequestBodyBytes+1) + `{"app":"swim","arch":"SMT2"}`,
		"trailing":   `{"app":"swim","arch":"SMT2"}` + strings.Repeat(" ", maxRequestBodyBytes),
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", name, resp.StatusCode)
		}
	}
	status, j, _ := submit(t, ts, JobSpec{App: "swim", Arch: "SMT2"})
	if status != http.StatusAccepted {
		t.Fatalf("valid submission after 413s: status %d, want 202", status)
	}
	if got := waitJob(t, ts, j.ID); got.Status != StateDone {
		t.Fatalf("valid submission after 413s did not complete: %+v", got)
	}
}

// TestServiceHealthAndMetricsEndpoints smoke-checks /healthz and the
// metrics listing/serving path with sampling enabled.
func TestServiceHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{MetricsInterval: 5000})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Queue  struct {
			Capacity int `json:"capacity"`
			Workers  int `json:"workers"`
		} `json:"queue"`
		Cache Stats `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.Status != "ok" || health.Queue.Capacity == 0 || health.Queue.Workers == 0 {
		t.Fatalf("bad /healthz: %+v err=%v", health, err)
	}

	status, j, _ := submit(t, ts, JobSpec{App: "ocean", Arch: "SMT2"})
	if status != http.StatusAccepted {
		t.Fatalf("submission: status %d", status)
	}
	if j = waitJob(t, ts, j.ID); j.Status != StateDone {
		t.Fatalf("job: %+v", j)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Enabled bool     `json:"metrics_enabled"`
		Runs    []string `json:"runs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || !list.Enabled || len(list.Runs) == 0 {
		t.Fatalf("bad metrics listing: %+v err=%v", list, err)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics/" + list.Runs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics fetch: status %d", resp.StatusCode)
	}
	var head [64]byte
	n, _ := resp.Body.Read(head[:])
	if !strings.HasPrefix(string(head[:n]), "start,") && !strings.Contains(string(head[:n]), ",") {
		t.Fatalf("metrics body does not look like CSV: %q", head[:n])
	}
}

// TestJobSpecHashNormalization pins spec-level canonicalization: a
// blank size resolving to the default and an explicit default hash
// identically, as do FA8 and SMT8.
func TestJobSpecHashNormalization(t *testing.T) {
	blank, err := JobSpec{App: "swim", Arch: "SMT2"}.Resolve(workloads.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := JobSpec{App: "swim", Arch: "SMT2", Size: "test"}.Resolve(workloads.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if blank.Hash() != explicit.Hash() {
		t.Fatal("defaulted and explicit size hash differently")
	}
	ref, err := JobSpec{App: "swim", Arch: "SMT2", Size: "ref"}.Resolve(workloads.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if blank.Hash() == ref.Hash() {
		t.Fatal("different sizes share a hash")
	}
	fa8, _ := JobSpec{App: "swim", Arch: "FA8"}.Resolve(workloads.SizeTest)
	smt8, _ := JobSpec{App: "swim", Arch: "SMT8"}.Resolve(workloads.SizeTest)
	if fa8.Hash() != smt8.Hash() {
		t.Fatal("FA8 and SMT8 hash differently")
	}

	// The key bytes are pinned: a drift in the formula silently orphans
	// every results.log.
	const mgrid = "3f954ebc1b2df3ae1b6422be5e2fe357107ec240d80c6b50ca424f9899150e6d"
	for spec, want := range map[JobSpec]string{
		{App: "mgrid", Arch: "SMT2"}:                             mgrid,
		{App: "ocean", Arch: "SMT8", HighEnd: true, Size: "ref"}: "3747779e714bf6bed4a93b400784e03a2de5eaf6f86f86daef2aa0a9a8ac2090",
	} {
		rj, err := spec.Resolve(workloads.SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", rj.Hash()); got != want {
			t.Errorf("%+v hashes to %s, want %s", spec, got, want)
		}
	}
	// A job serves its key, in hex, as its hash.
	_, ts := newTestServer(t, Options{})
	if _, j, _ := submit(t, ts, JobSpec{App: "mgrid", Arch: "SMT2"}); j.Hash != mgrid {
		t.Fatalf("served hash %q, want %s", j.Hash, mgrid)
	}
}

// TestCacheLRUEviction exercises the memory tier's bound directly.
func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	keys := [3][32]byte{{1}, {2}, {3}}
	for i, k := range keys {
		if err := c.Put(k, JobSpec{}, &core.Result{Cycles: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := c.Get(keys[0]); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	for _, k := range keys[1:] {
		if _, _, ok := c.Get(k); !ok {
			t.Fatal("recent entry evicted")
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("bad stats: %+v", st)
	}
}

// TestJobTableBounded checks that the daemon's job table does not grow
// with every job served: past maxFinishedJobs terminal jobs the one
// that finished longest ago is evicted (its ID answers 404 and it
// leaves the listing), while a job still waiting for its worker is
// kept however many others finish around it.
func TestJobTableBounded(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, QueueCap: 2})
	gate := make(chan struct{})
	srv.pool.gate = gate

	hot := JobSpec{App: "swim", Arch: "FA8"}
	_, first, _ := submit(t, ts, hot)
	gate <- struct{}{} // let exactly this one through
	if j := waitJob(t, ts, first.ID); j.Status != StateDone {
		t.Fatalf("seed job ended %q (%s)", j.Status, j.Error)
	}
	status, held, _ := submit(t, ts, JobSpec{App: "swim", Arch: "FA4"})
	if status != http.StatusAccepted {
		t.Fatalf("held job: status %d", status)
	}

	const extra = 40
	ids := []string{first.ID}
	for i := 0; i < maxFinishedJobs+extra; i++ {
		status, j, _ := submit(t, ts, hot)
		if status != http.StatusOK || !j.CacheHit {
			t.Fatalf("resubmission %d: status %d, cache hit %v", i, status, j.CacheHit)
		}
		ids = append(ids, j.ID)
	}

	statusOf := func(id string) int {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	listed := func() []string {
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct{ Jobs []wireJob }
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(out.Jobs))
		for i, j := range out.Jobs {
			got[i] = j.ID
		}
		return got
	}
	check := func(when string, evicted int, want []string) {
		t.Helper()
		for _, id := range ids[:evicted] {
			if c := statusOf(id); c != http.StatusNotFound {
				t.Fatalf("%s: evicted job %s answers %d, want 404", when, id, c)
			}
		}
		if c := statusOf(ids[evicted]); c != http.StatusOK {
			t.Fatalf("%s: oldest retained job %s answers %d", when, ids[evicted], c)
		}
		if got := listed(); !slices.Equal(got, want) {
			t.Fatalf("%s: listing holds %d jobs (%v ... %v), want %d", when, len(got), got[:2], got[len(got)-2:], len(want))
		}
	}

	// 1 + 1024 + extra jobs finished: the first 1 + extra are gone. The
	// held job was admitted second and is listed there.
	want := append([]string{held.ID}, ids[1+extra:]...)
	check("worker held", 1+extra, want)

	close(gate)
	if j := waitJob(t, ts, held.ID); j.Status != StateDone {
		t.Fatalf("held job ended %q (%s)", j.Status, j.Error)
	}
	// jobDone runs after the job turns terminal; the pool counts the job
	// completed once jobDone has returned.
	waitFor(t, "held job filed as finished", func() bool {
		_, _, completed := srv.pool.Counters()
		return completed == 2
	})
	// Its finishing pushed one more out; it is now the newest finished.
	want = append([]string{held.ID}, ids[2+extra:]...)
	check("worker released", 2+extra, want)
	srv.jobsMu.Lock()
	nJobs, nFinished := len(srv.jobs), len(srv.finished)
	srv.jobsMu.Unlock()
	if nJobs != maxFinishedJobs || nFinished != maxFinishedJobs {
		t.Fatalf("table holds %d jobs, %d finished; want %d of each", nJobs, nFinished, maxFinishedJobs)
	}
}
