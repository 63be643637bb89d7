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

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/workloads"
)

// TestServiceWarmupSynthRunsFromScratch checks that a synth job
// declaring a warm-up prefix (w<N>) is an ordinary program to the
// daemon: it is accepted, simulated once from cycle zero with no fork,
// and its result equals core.New(...).Run() on the same program;
// /healthz carries no warm-up block. The cache directory receives the
// one result record in its log and nothing else, and a checkpoint file
// an older build left there is neither read nor touched.
func TestServiceWarmupSynthRunsFromScratch(t *testing.T) {
	dir := t.TempDir()
	planted := filepath.Join(dir, fmt.Sprintf("snap-v8-%064x.bin", 1))
	plantedData := []byte("checkpoint written by an older build")
	if err := os.WriteFile(planted, plantedData, 0o644); err != nil {
		t.Fatal(err)
	}

	spec := workloads.SyntheticSpec{ChainLen: 4, Iters: 256, WarmupIters: 1500}
	app := workloads.Synthetic(spec)
	srv, err := New(Options{DefaultSize: workloads.SizeTest, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	status, j, _ := submit(t, ts, JobSpec{App: app.Name, Arch: "SMT2"})
	if status != http.StatusAccepted {
		t.Fatalf("submit %s: status %d", app.Name, status)
	}
	done := waitJob(t, ts, j.ID)
	if done.Status != StateDone {
		t.Fatalf("job %s failed: %+v", app.Name, done)
	}
	if forks, restores := srv.suite.WarmForks(); forks != 0 || restores != 0 {
		t.Fatalf("%d forks / %d restores, want 0 / 0", forks, restores)
	}
	if sims := srv.suite.Simulations(); sims != 1 {
		t.Fatalf("%d simulations, want 1", sims)
	}

	m := config.LowEnd(config.SMT2)
	sim, err := core.New(m, app.Build(m.Threads(), m.Chips, workloads.SizeTest))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, done.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantJSON) {
		t.Fatalf("%s: job result differs from a direct run\njob    %s\ndirect %s", app.Name, got.Bytes(), wantJSON)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := health["warmup"]; ok || health["simulations"] == nil {
		t.Fatalf("/healthz %s: want simulations and no warmup", health)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	logOnly(t, dir, 1, filepath.Base(planted))
	if got, err := os.ReadFile(planted); err != nil || !bytes.Equal(got, plantedData) {
		t.Fatalf("planted checkpoint changed: %q, %v", got, err)
	}
}
