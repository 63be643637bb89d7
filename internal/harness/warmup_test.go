package harness

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/obs"
	"clustersmt/internal/workloads"
)

// warmupVariants is a small sweep family sharing one warm-up prefix:
// the specs differ only in post-prefix knobs, so a single warmed parent
// per machine serves all of them.
func warmupVariants() []workloads.Workload {
	var ws []workloads.Workload
	for _, spec := range []workloads.SyntheticSpec{
		{ChainLen: 0, IndepOps: 4, Iters: 256, WarmupIters: 1500},
		{ChainLen: 4, IndepOps: 0, Iters: 256, WarmupIters: 1500},
		{ChainLen: 2, IndepOps: 2, Iters: 192, WarmupIters: 1500},
		{ParCap: 2, ChainLen: 2, Iters: 256, WarmupIters: 1500},
	} {
		ws = append(ws, workloads.Synthetic(spec))
	}
	return ws
}

// warmupTestCycles pauses the parent well inside the 1500-iteration
// warm-up chain (same proportions as the core checkpoint tests).
const warmupTestCycles = 1000

// TestWarmupSharingBitIdentical is the harness half of the house gate:
// a suite that forks every variant from one warmed parent must produce
// results bit-identical to a suite that simulates each variant from
// scratch. A sampling suite with the same WarmupCycles never forks (a
// checkpoint carries no sampler): it reports no warm forks, and its
// results and retained frames equal a scratch sampling suite's.
func TestWarmupSharingBitIdentical(t *testing.T) {
	apps := warmupVariants()
	run := func(t *testing.T, s *Suite, arch config.Arch) map[string]map[string]*core.Result {
		t.Helper()
		res, err := s.RunMatrixContext(context.Background(), apps, []config.Arch{arch}, false)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, arch := range []config.Arch{config.SMT2, config.FA4} {
		scratch := NewSuite(workloads.SizeTest)
		warm := NewSuite(workloads.SizeTest)
		warm.WarmupCycles = warmupTestCycles
		want, got := run(t, scratch, arch), run(t, warm, arch)
		if forks, _ := warm.WarmForks(); forks != int64(len(apps)) {
			t.Fatalf("%s: %d warm forks, want %d (warm-up sharing did not engage)", arch.Name, forks, len(apps))
		}

		sampledScratch := NewSuite(workloads.SizeTest)
		sampledScratch.MetricsInterval = 256
		sampled := NewSuite(workloads.SizeTest)
		sampled.MetricsInterval = 256
		sampled.WarmupCycles = warmupTestCycles
		wantSampled, gotSampled := run(t, sampledScratch, arch), run(t, sampled, arch)
		if forks, _ := sampled.WarmForks(); forks != 0 {
			t.Fatalf("%s: a sampling suite forked %d runs, want 0", arch.Name, forks)
		}
		for _, app := range apps {
			w := want[app.Name][arch.Name]
			if !reflect.DeepEqual(w, got[app.Name][arch.Name]) {
				t.Errorf("%s on %s: forked result differs from scratch", app.Name, arch.Name)
			}
			if !reflect.DeepEqual(w, wantSampled[app.Name][arch.Name]) || !reflect.DeepEqual(w, gotSampled[app.Name][arch.Name]) {
				t.Errorf("%s on %s: sampled result differs from scratch", app.Name, arch.Name)
			}
			name := app.Name + "@" + config.LowEnd(arch).Name
			wr, gr := sampledScratch.Metrics(name), sampled.Metrics(name)
			if wr == nil || gr == nil {
				t.Fatalf("%s: missing metrics ring (scratch=%v warm=%v)", name, wr != nil, gr != nil)
			}
			if !reflect.DeepEqual(wr.Frames(), gr.Frames()) {
				t.Errorf("%s: sampled frames differ from scratch", name)
			}
		}
	}
}

// memStore is an in-memory SnapshotStore recording traffic.
type memStore struct {
	mu           sync.Mutex
	m            map[string][]byte
	loads, saves int
}

func newMemStore() *memStore { return &memStore{m: make(map[string][]byte)} }

func (s *memStore) LoadSnapshot(_ context.Context, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	data, ok := s.m[key]
	return data, ok
}

func (s *memStore) SaveSnapshot(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves++
	s.m[key] = data
}

// TestWarmupSnapshotStore proves warm-up persistence: a second suite
// sharing the first one's store restores the warmed parent instead of
// re-running the warm-up, and still matches scratch results exactly.
func TestWarmupSnapshotStore(t *testing.T) {
	apps := warmupVariants()
	arch := config.SMT2
	store := newMemStore()

	scratch := NewSuite(workloads.SizeTest)
	want, err := scratch.RunMatrixContext(context.Background(), apps, []config.Arch{arch}, false)
	if err != nil {
		t.Fatal(err)
	}

	first := NewSuite(workloads.SizeTest)
	first.WarmupCycles = warmupTestCycles
	first.Snapshots = store
	if _, err := first.RunMatrixContext(context.Background(), apps, []config.Arch{arch}, false); err != nil {
		t.Fatal(err)
	}
	if _, restores := first.WarmForks(); restores != 0 {
		t.Fatalf("first suite restored %d parents from an empty store", restores)
	}
	if store.saves != 1 {
		t.Fatalf("first suite saved %d snapshots, want 1 (one warmed parent)", store.saves)
	}

	second := NewSuite(workloads.SizeTest)
	second.WarmupCycles = warmupTestCycles
	second.Snapshots = store
	got, err := second.RunMatrixContext(context.Background(), apps, []config.Arch{arch}, false)
	if err != nil {
		t.Fatal(err)
	}
	forks, restores := second.WarmForks()
	if restores != 1 || forks != int64(len(apps)) {
		t.Fatalf("second suite: %d restores / %d forks, want 1 / %d", restores, forks, len(apps))
	}
	if store.saves != 1 {
		t.Fatalf("second suite re-saved (saves=%d); a restored parent should not be re-persisted", store.saves)
	}
	for _, app := range apps {
		if !reflect.DeepEqual(want[app.Name][arch.Name], got[app.Name][arch.Name]) {
			t.Errorf("%s: store-restored result differs from scratch", app.Name)
		}
	}
}

// TestWarmupCorruptStoreEntry proves a damaged persisted checkpoint is
// a soft miss: the suite re-runs the warm-up and overwrites the entry.
func TestWarmupCorruptStoreEntry(t *testing.T) {
	apps := warmupVariants()[:2]
	arch := config.SMT2
	store := newMemStore()

	first := NewSuite(workloads.SizeTest)
	first.WarmupCycles = warmupTestCycles
	first.Snapshots = store
	want, err := first.RunMatrixContext(context.Background(), apps, []config.Arch{arch}, false)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range store.m {
		store.m[k] = v[:len(v)/2] // truncate the checkpoint
	}

	second := NewSuite(workloads.SizeTest)
	second.WarmupCycles = warmupTestCycles
	second.Snapshots = store
	got, err := second.RunMatrixContext(context.Background(), apps, []config.Arch{arch}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, restores := second.WarmForks(); restores != 0 {
		t.Fatalf("restored %d parents from a truncated entry", restores)
	}
	if store.saves != 2 {
		t.Fatalf("saves=%d, want 2 (the re-run warm-up overwrites the bad entry)", store.saves)
	}
	for _, app := range apps {
		if !reflect.DeepEqual(want[app.Name][arch.Name], got[app.Name][arch.Name]) {
			t.Errorf("%s: result differs after store corruption fallback", app.Name)
		}
	}
}

// TestWarmupFallbacks covers the silent scratch fallbacks: workloads
// with no declared prefix, and a checkpoint cycle the warm-up never
// reaches (the parent finishes or leaves the prefix first).
func TestWarmupFallbacks(t *testing.T) {
	arch := config.SMT2

	t.Run("no-prefix", func(t *testing.T) {
		app := workloads.Synthetic(workloads.SyntheticSpec{ChainLen: 2, Iters: 256})
		scratch := NewSuite(workloads.SizeTest)
		want, err := scratch.Run(app, arch, false)
		if err != nil {
			t.Fatal(err)
		}
		warm := NewSuite(workloads.SizeTest)
		warm.WarmupCycles = warmupTestCycles
		got, err := warm.Run(app, arch, false)
		if err != nil {
			t.Fatal(err)
		}
		if forks, _ := warm.WarmForks(); forks != 0 {
			t.Fatalf("%d warm forks for a prefix-less workload", forks)
		}
		if !reflect.DeepEqual(want, got) {
			t.Error("fallback result differs from scratch")
		}
	})

	t.Run("checkpoint-past-warmup", func(t *testing.T) {
		// A 16-iteration warm-up is long over by cycle 50000; the warmed
		// parent is unusable and every variant runs from scratch.
		app := workloads.Synthetic(workloads.SyntheticSpec{ChainLen: 2, Iters: 256, WarmupIters: 16})
		scratch := NewSuite(workloads.SizeTest)
		want, err := scratch.Run(app, arch, false)
		if err != nil {
			t.Fatal(err)
		}
		warm := NewSuite(workloads.SizeTest)
		warm.WarmupCycles = 50000
		got, err := warm.Run(app, arch, false)
		if err != nil {
			t.Fatal(err)
		}
		if forks, _ := warm.WarmForks(); forks != 0 {
			t.Fatalf("%d warm forks from an expired warm-up", forks)
		}
		if !reflect.DeepEqual(want, got) {
			t.Error("fallback result differs from scratch")
		}
	})
}

// TestWarmupFrameConservation checks the heartbeat stream of a
// sampling suite with WarmupCycles set: it runs every variant from
// cycle zero, so every frame is delivered once, in order, and the
// retained ring is exactly the heartbeat and equals a scratch suite's.
// The same suite settings without sampling still fork every variant.
func TestWarmupFrameConservation(t *testing.T) {
	apps := warmupVariants()[:2]
	arch := config.SMT2

	var mu sync.Mutex
	heartbeat := make(map[string][]obs.Frame)
	warm := NewSuite(workloads.SizeTest)
	warm.MetricsInterval = 256
	warm.WarmupCycles = warmupTestCycles
	warm.OnFrame = func(app, machine string, f obs.Frame) {
		mu.Lock()
		heartbeat[app+"@"+machine] = append(heartbeat[app+"@"+machine], f)
		mu.Unlock()
	}
	scratch := NewSuite(workloads.SizeTest)
	scratch.MetricsInterval = 256
	for _, s := range []*Suite{warm, scratch} {
		if _, err := s.RunMatrixContext(context.Background(), apps, []config.Arch{arch}, false); err != nil {
			t.Fatal(err)
		}
	}
	if forks, _ := warm.WarmForks(); forks != 0 {
		t.Fatalf("a sampling suite forked %d runs, want 0", forks)
	}
	runs := warm.MetricsRuns()
	if len(runs) != len(apps) {
		t.Fatalf("%d runs retain frames, want %d", len(runs), len(apps))
	}
	for _, run := range runs {
		ring := warm.Metrics(run)
		frames := ring.Frames()
		if len(frames) == 0 || ring.Dropped() != 0 {
			t.Fatalf("%s: %d frames retained, %d dropped; want all of a non-empty run", run, len(frames), ring.Dropped())
		}
		if !reflect.DeepEqual(frames, heartbeat[run]) {
			t.Errorf("%s: %d heartbeat frames are not the %d retained", run, len(heartbeat[run]), len(frames))
		}
		if !reflect.DeepEqual(frames, scratch.Metrics(run).Frames()) {
			t.Errorf("%s: frames differ from a scratch suite's", run)
		}
	}

	plain := NewSuite(workloads.SizeTest)
	plain.WarmupCycles = warmupTestCycles
	if _, err := plain.RunMatrixContext(context.Background(), apps, []config.Arch{arch}, false); err != nil {
		t.Fatal(err)
	}
	if forks, _ := plain.WarmForks(); forks != int64(len(apps)) {
		t.Fatalf("without sampling: %d warm forks, want %d", forks, len(apps))
	}
}
