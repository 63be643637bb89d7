package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/workloads"
)

// TestCacheReopenIgnoresStaleIndex is the restart contract for the disk
// tier: the envelope files are the whole store. A cache opened over a
// directory holding a valid envelope, a torn one, a foreign file and an
// index.json left by an older daemon serves the valid key from disk,
// misses the torn one until the next Put rewrites it, and neither
// trusts nor touches anything else in the directory.
func TestCacheReopenIgnoresStaleIndex(t *testing.T) {
	dir := t.TempDir()
	res := func(cycles int64) *core.Result {
		return &core.Result{ProgramName: "swim", Machine: config.LowEnd(config.SMT2), Cycles: cycles}
	}
	valid, torn, indexedOnly := [32]byte{1}, [32]byte{2}, [32]byte{3}
	envelopePath := func(k [32]byte) string { return filepath.Join(dir, fmt.Sprintf("%x.json", k)) }

	a, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(valid, JobSpec{App: "swim"}, res(100)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(envelopePath(torn), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The leftover index vouches for a key with no envelope, in the
	// older daemon's format; the foreign file is not JSON at all.
	bystanders := map[string][]byte{
		"index.json":  []byte(fmt.Sprintf(`[{"hash":"%x","app":"swim","machine":"low-end/SMT2","cycles":300}]`, indexedOnly)),
		"put-123.tmp": []byte("junk"),
	}
	for name, data := range bystanders {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c, err := NewCache(0, dir)
	if err != nil {
		t.Fatalf("reopen over a stale index: %v", err)
	}
	// Disk hits promote: first Get is a disk hit, second memory.
	if r, tier, ok := c.Get(valid); !ok || tier != TierDisk || r.Cycles != 100 {
		t.Fatalf("valid envelope not served from disk: ok=%v tier=%q", ok, tier)
	}
	if _, tier, ok := c.Get(valid); !ok || tier != TierMemory {
		t.Fatalf("disk hit not promoted to memory: ok=%v tier=%q", ok, tier)
	}
	if _, _, ok := c.Get(indexedOnly); ok {
		t.Fatal("a key only the stale index lists served a result")
	}
	if _, _, ok := c.Get(torn); ok {
		t.Fatal("torn envelope served a result")
	}
	if err := c.Put(torn, JobSpec{App: "swim"}, res(200)); err != nil {
		t.Fatal(err)
	}
	d, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r, tier, ok := d.Get(torn); !ok || tier != TierDisk || r.Cycles != 200 {
		t.Fatalf("Put did not rewrite the torn envelope: ok=%v tier=%q", ok, tier)
	}
	if st := d.Stats(); st.Entries != 1 {
		t.Fatalf("reopened cache holds %d entries before any other lookup, want 1 (nothing is preloaded)", st.Entries)
	}
	for name, data := range bystanders {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s changed or vanished (err %v)", name, err)
		}
	}
}

// TestServiceDiskCacheRecoversFromCrash is the server-level restart
// test: server A completes a job and dies without the graceful Close,
// an older daemon's index.json sits corrupt in the directory, and
// server B on the same directory must still serve the same spec
// instantly from the disk tier with identical bytes.
func TestServiceDiskCacheRecoversFromCrash(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{App: "tomcatv", Arch: "FA4"}

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
	// Crash: no srvA.Close(ctx). A leftover index is actively wrong
	// rather than merely missing.
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`[{"hash":"feed`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Silence the leaked pool on test exit.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srvA.Close(ctx)
	})

	srvB, err := New(Options{DefaultSize: workloads.SizeTest, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	defer srvB.Close(context.Background())

	status, second, _ := submit(t, tsB, spec)
	if status != http.StatusOK {
		t.Fatalf("resubmission on B: status %d, want 200 (instant)", status)
	}
	if !second.CacheHit || second.CacheTier != TierDisk {
		t.Fatalf("resubmission on B not a disk hit: %+v", second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("crash-recovered result differs from the original JSON")
	}
}

// TestServiceCacheKeyCoversAllocPolicy: the server's allocation policy
// is part of every job's content hash, so a daemon restarted under
// another -alloc over the same cache directory simulates the job itself
// instead of serving the first policy's cycles, while a restart under
// the same policy still hits — under the very key an unconfigured
// daemon has always used, static normalizing to nothing.
func TestServiceCacheKeyCoversAllocPolicy(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{App: "ocean", Arch: "SMT2"}
	run := func(opts Options) (wireJob, uint64) {
		t.Helper()
		opts.CacheDir = dir
		_, ts := newTestServer(t, opts)
		status, j, _ := submit(t, ts, spec)
		if status == http.StatusAccepted {
			j = waitJob(t, ts, j.ID)
		}
		if j.Status != StateDone {
			t.Fatalf("job under %+v: status %d, %+v", opts, status, j)
		}
		var res core.Result
		if err := json.Unmarshal(j.Result, &res); err != nil {
			t.Fatal(err)
		}
		return j, res.AllocEpochs
	}

	static, staticEpochs := run(Options{})
	if static.CacheHit || staticEpochs != 0 {
		t.Fatalf("first static run: cache_hit=%v alloc epochs=%d, want a fresh run with none", static.CacheHit, staticEpochs)
	}
	rj, err := spec.Resolve(workloads.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if static.Hash != rj.HashHex() {
		t.Fatalf("static job keyed %s, want the policy-free key %s", static.Hash, rj.HashHex())
	}
	icount, icountEpochs := run(Options{AllocPolicy: "icount", AllocEpoch: 2000})
	if icount.CacheHit || icount.Hash == static.Hash {
		t.Fatalf("icount daemon over a static cache dir: cache_hit=%v hash=%s (static %s)", icount.CacheHit, icount.Hash, static.Hash)
	}
	if icountEpochs == 0 {
		t.Fatal("icount run evaluated no allocation epochs: it was not simulated under icount")
	}
	again, _ := run(Options{AllocPolicy: "static"})
	if !again.CacheHit || again.CacheTier != TierDisk || !bytes.Equal(again.Result, static.Result) {
		t.Fatalf("static daemon over its own cache dir: %+v, want the first run's bytes from disk", again)
	}
}

// getBody fetches url and returns its body, failing on any status but
// 200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestFigureSurvivesRestart: figure cells and jobs share the result
// cache. A figure requested after a job reuses that job's result; a
// daemon restarted over the same directory answers the figure from disk
// with zero simulations, byte for byte as JSON and as text; and a job
// for one of its cells is then a cache hit.
func TestFigureSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const fig5 = "/v1/figures/5?size=test"
	cell := JobSpec{App: "ocean", Arch: "FA4", HighEnd: true}

	srvA, tsA := newTestServer(t, Options{CacheDir: dir})
	status, j, _ := submit(t, tsA, cell)
	if status != http.StatusAccepted {
		t.Fatalf("cell job on A: status %d", status)
	}
	if j = waitJob(t, tsA, j.ID); j.Status != StateDone {
		t.Fatalf("cell job on A failed: %+v", j)
	}
	jsonA := getBody(t, tsA.URL+fig5)
	textA := getBody(t, tsA.URL+fig5+"&format=text")
	// Fig. 5 is 6 apps x 5 archs; the job already ran one of its cells.
	if n := srvA.simulations(); n != 30 {
		t.Fatalf("job then figure on A ran %d simulations, want 30 (the job's cell reused)", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 30 {
		t.Fatalf("cache dir holds %d files after the figure, want 30 envelopes", len(entries))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tsA.Close()
	if err := srvA.Close(ctx); err != nil {
		t.Fatal(err)
	}

	srvB, tsB := newTestServer(t, Options{CacheDir: dir})
	if got := getBody(t, tsB.URL+fig5); !bytes.Equal(got, jsonA) {
		t.Fatal("figure JSON after a restart differs from the first daemon's")
	}
	if got := getBody(t, tsB.URL+fig5+"&format=text"); !bytes.Equal(got, textA) {
		t.Fatalf("figure text after a restart differs:\n%s\nvs\n%s", got, textA)
	}
	var health struct {
		Simulations int64 `json:"simulations"`
	}
	if err := json.Unmarshal(getBody(t, tsB.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.Simulations != 0 {
		t.Fatalf("restarted daemon ran %d simulations for a figure on disk, want 0", health.Simulations)
	}
	other := JobSpec{App: "swim", Arch: "SMT2", HighEnd: true}
	status, hit, _ := submit(t, tsB, other)
	if status != http.StatusOK || !hit.CacheHit {
		t.Fatalf("job for a figure cell after the restart: status %d, %+v; want an inline cache hit", status, hit)
	}
	if n := srvB.simulations(); n != 0 {
		t.Fatalf("restarted daemon ran %d simulations, want 0", n)
	}
}

// TestColdJobWritesOnce pins the cost of a cold job now that the Store
// hook writes results: one simulation, one cache write, one entry, and
// the two counted misses it has always cost (the submission's lookup and
// the queue's re-check) — the hook does not look the job up again.
func TestColdJobWritesOnce(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Options{CacheDir: dir})
	_, j, _ := submit(t, ts, JobSpec{App: "swim", Arch: "SMT4"})
	if j = waitJob(t, ts, j.ID); j.Status != StateDone || j.CacheHit {
		t.Fatalf("cold job: %+v", j)
	}
	st := srv.cache.Stats()
	if st.Misses != 2 || st.Hits != 0 || st.DiskHits != 0 || st.Entries != 1 {
		t.Fatalf("cache after one cold job: %+v, want 2 misses, no hits, 1 entry", st)
	}
	body, _ := scrapeMetrics(t, ts)
	if v := metricValue(t, body, "clusterd_cache_write_seconds_count"); v != 1 {
		t.Fatalf("cache writes = %v, want 1", v)
	}
	if n := srv.simulations(); n != 1 {
		t.Fatalf("%d simulations, want 1", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache dir holds %d files (err %v), want 1 envelope", len(entries), err)
	}
}
