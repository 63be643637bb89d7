package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// TestServiceWarmupForksInProcess drives the daemon's warm-up path end
// to end: jobs submitted by canonical synth(...) name fork from one
// warmed parent held in process, results stay bit-identical to a
// warm-up-free daemon, and the cache directory receives one result
// record per job in its log and nothing else — a checkpoint file
// already there (as an older build wrote them) is neither read nor
// touched. A restarted daemon serves
// the first one's results from disk and re-warms once for a new
// variant.
func TestServiceWarmupForksInProcess(t *testing.T) {
	dir := t.TempDir()
	variants := []string{
		warmupSpecName(0, 4), warmupSpecName(4, 0), warmupSpecName(2, 2),
	}

	// Reference results from a daemon with warm-up sharing off.
	_, tsRef := newTestServer(t, Options{})
	scratch := func(app string) json.RawMessage {
		t.Helper()
		status, j, _ := submit(t, tsRef, JobSpec{App: app, Arch: "SMT2"})
		if status != http.StatusAccepted {
			t.Fatalf("reference submit %s: status %d", app, status)
		}
		done := waitJob(t, tsRef, j.ID)
		if done.Status != StateDone {
			t.Fatalf("reference job %s failed: %+v", app, done)
		}
		return done.Result
	}

	planted := filepath.Join(dir, fmt.Sprintf("snap-v8-%064x.bin", 1))
	plantedData := []byte("checkpoint written by an older build")
	if err := os.WriteFile(planted, plantedData, 0o644); err != nil {
		t.Fatal(err)
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
		if !bytes.Equal(scratch(app), done.Result) {
			t.Fatalf("%s: warmed daemon's result differs from the warm-up-free daemon's", app)
		}
	}
	if forks, restores := srvA.suite.WarmForks(); forks != int64(len(variants)) || restores != 0 {
		t.Fatalf("daemon A: %d forks / %d restores, want %d / 0", forks, restores, len(variants))
	}

	// /healthz's warm-up block is the setting and the fork count.
	resp, err := http.Get(tsA.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Warmup map[string]any `json:"warmup"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(health.Warmup) != 3 || health.Warmup["enabled"] != true ||
		health.Warmup["cycles"] != float64(1000) || health.Warmup["forks"] != float64(len(variants)) {
		t.Fatalf("healthz warmup block %v, want exactly enabled, cycles and forks", health.Warmup)
	}

	tsA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srvA.Close(ctx); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	logOnly(t, dir, len(variants), filepath.Base(planted))

	// Daemon B inherits the directory: A's results come back from disk,
	// and a NEW variant re-runs the warm-up once and forks from it.
	srvB, err := New(Options{DefaultSize: workloads.SizeTest, CacheDir: dir, WarmupCycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	defer srvB.Close(context.Background())

	for _, name := range variants {
		status, hit, _ := submit(t, tsB, JobSpec{App: name, Arch: "SMT2"})
		if status != http.StatusOK || !hit.CacheHit || hit.CacheTier != TierDisk {
			t.Fatalf("%s on B: status %d, %+v; want an inline disk hit", name, status, hit)
		}
	}
	fresh := warmupSpecName(6, 0)
	status, j, _ := submit(t, tsB, JobSpec{App: fresh, Arch: "SMT2"})
	if status != http.StatusAccepted {
		t.Fatalf("submit %s on B: status %d", fresh, status)
	}
	done := waitJob(t, tsB, j.ID)
	if done.Status != StateDone {
		t.Fatalf("job %s on B failed: %+v", fresh, done)
	}
	if forks, restores := srvB.suite.WarmForks(); forks != 1 || restores != 0 {
		t.Fatalf("daemon B: %d forks / %d restores, want 1 / 0 (one fresh warm-up)", forks, restores)
	}
	if sims := srvB.suite.Simulations(); sims != 1 {
		t.Fatalf("daemon B ran %d simulations, want 1 (the new variant)", sims)
	}
	if !bytes.Equal(scratch(fresh), done.Result) {
		t.Fatalf("%s: forked result differs from scratch", fresh)
	}
	logOnly(t, dir, len(variants)+1, filepath.Base(planted))
	if got, err := os.ReadFile(planted); err != nil || !bytes.Equal(got, plantedData) {
		t.Fatalf("planted checkpoint changed: %q, %v", got, err)
	}
}
