package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"clustersmt/internal/workloads"
)

// warmupSpec returns the canonical name of one sweep-grid variant
// carrying a shared 1500-iteration warm-up prefix.
func warmupSpecName(chain, indep int) string {
	return workloads.Synthetic(workloads.SyntheticSpec{
		ChainLen: chain, IndepOps: indep, Iters: 256, WarmupIters: 1500,
	}).Name
}

// TestServiceWarmupForksAndPersists drives the daemon's warm-up path
// end to end: jobs submitted by canonical synth(...) name fork from one
// warmed parent, results stay bit-identical to a warm-up-free daemon,
// the checkpoint is persisted under the cache directory, and a
// restarted daemon restores it instead of re-running the warm-up.
func TestServiceWarmupForksAndPersists(t *testing.T) {
	dir := t.TempDir()
	variants := []string{
		warmupSpecName(0, 4), warmupSpecName(4, 0), warmupSpecName(2, 2),
	}

	// Reference results from a daemon with warm-up sharing off.
	_, tsRef := newTestServer(t, Options{})
	ref := make(map[string]json.RawMessage)
	for _, app := range variants {
		status, j, _ := submit(t, tsRef, JobSpec{App: app, Arch: "SMT2"})
		if status != http.StatusAccepted {
			t.Fatalf("reference submit %s: status %d", app, status)
		}
		done := waitJob(t, tsRef, j.ID)
		if done.Status != StateDone {
			t.Fatalf("reference job %s failed: %+v", app, done)
		}
		ref[app] = done.Result
	}

	srvA, err := New(Options{DefaultSize: workloads.SizeTest, CacheDir: dir, WarmupCycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	for _, app := range variants {
		status, j, _ := submit(t, tsA, JobSpec{App: app, Arch: "SMT2"})
		if status != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", app, status)
		}
		done := waitJob(t, tsA, j.ID)
		if done.Status != StateDone {
			t.Fatalf("job %s failed: %+v", app, done)
		}
		if !bytes.Equal(ref[app], done.Result) {
			t.Fatalf("%s: warmed daemon's result differs from the warm-up-free daemon's", app)
		}
	}
	if forks, restores := srvA.suite.WarmForks(); forks != int64(len(variants)) || restores != 0 {
		t.Fatalf("daemon A: %d forks / %d restores, want %d / 0", forks, restores, len(variants))
	}

	// /healthz surfaces the warm-up counters and the persisted count.
	resp, err := http.Get(tsA.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Warmup struct {
			Enabled   bool  `json:"enabled"`
			Forks     int64 `json:"forks"`
			Persisted int   `json:"persisted"`
		} `json:"warmup"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !health.Warmup.Enabled || health.Warmup.Forks != int64(len(variants)) || health.Warmup.Persisted != 1 {
		t.Fatalf("healthz warmup block wrong: %+v", health.Warmup)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), "snap-") && strings.HasSuffix(de.Name(), ".bin") {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d persisted snapshots, want 1 (one warmed parent)", snaps)
	}

	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srvA.Close(ctx); err != nil {
		t.Fatalf("graceful close: %v", err)
	}

	// Daemon B inherits the directory: a NEW variant (not in the result
	// cache) restores the persisted parent and forks, skipping the
	// warm-up run entirely.
	srvB, err := New(Options{DefaultSize: workloads.SizeTest, CacheDir: dir, WarmupCycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	defer srvB.Close(context.Background())

	fresh := warmupSpecName(6, 0)
	status, j, _ := submit(t, tsB, JobSpec{App: fresh, Arch: "SMT2"})
	if status != http.StatusAccepted {
		t.Fatalf("submit %s on B: status %d", fresh, status)
	}
	done := waitJob(t, tsB, j.ID)
	if done.Status != StateDone {
		t.Fatalf("job %s on B failed: %+v", fresh, done)
	}
	if forks, restores := srvB.suite.WarmForks(); forks != 1 || restores != 1 {
		t.Fatalf("daemon B: %d forks / %d restores, want 1 / 1 (restore from disk, no warm re-run)", forks, restores)
	}

	statusRef, jRef, _ := submit(t, tsRef, JobSpec{App: fresh, Arch: "SMT2"})
	if statusRef != http.StatusAccepted {
		t.Fatalf("reference submit %s: status %d", fresh, statusRef)
	}
	doneRef := waitJob(t, tsRef, jRef.ID)
	if !bytes.Equal(doneRef.Result, done.Result) {
		t.Fatalf("%s: restored-fork result differs from scratch", fresh)
	}

	// The snapshot file shares the directory with the result envelopes
	// without being taken for one: A's three results are all still
	// served from disk by B.
	for _, name := range variants {
		status, hit, _ := submit(t, tsB, JobSpec{App: name, Arch: "SMT2"})
		if status != http.StatusOK || !hit.CacheHit || hit.CacheTier != TierDisk {
			t.Fatalf("%s on B: status %d, %+v; want an inline disk hit", name, status, hit)
		}
	}
}
