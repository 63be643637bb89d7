package harness

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"clustersmt/internal/config"
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
// results — and retained metrics frames — bit-identical to a suite that
// simulates each variant from scratch.
func TestWarmupSharingBitIdentical(t *testing.T) {
	apps := warmupVariants()
	for _, arch := range []config.Arch{config.SMT2, config.FA4} {
		scratch := NewSuite(workloads.SizeTest)
		scratch.MetricsInterval = 256
		warm := NewSuite(workloads.SizeTest)
		warm.MetricsInterval = 256
		warm.WarmupCycles = warmupTestCycles

		want, err := scratch.RunMatrixContext(context.Background(), apps, []config.Arch{arch}, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := warm.RunMatrixContext(context.Background(), apps, []config.Arch{arch}, false)
		if err != nil {
			t.Fatal(err)
		}
		if forks, _ := warm.WarmForks(); forks != int64(len(apps)) {
			t.Fatalf("%s: %d warm forks, want %d (warm-up sharing did not engage)", arch.Name, forks, len(apps))
		}
		for _, app := range apps {
			w, g := want[app.Name][arch.Name], got[app.Name][arch.Name]
			if !reflect.DeepEqual(w, g) {
				t.Errorf("%s on %s: forked result differs from scratch", app.Name, arch.Name)
			}
			run := app.Name + "@" + config.LowEnd(arch).Name
			wr, gr := scratch.Metrics(run), warm.Metrics(run)
			if wr == nil || gr == nil {
				t.Fatalf("%s: missing metrics ring (scratch=%v warm=%v)", run, wr != nil, gr != nil)
			}
			if !reflect.DeepEqual(wr.Frames(), gr.Frames()) {
				t.Errorf("%s: forked metrics frames differ from scratch", run)
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

// TestWarmupFrameConservation checks the heartbeat stream against the
// retained ring for forked runs: every post-fork frame is delivered
// once, in order, and warm-up frames appear exactly once in the ring.
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
	if _, err := warm.RunMatrixContext(context.Background(), apps, []config.Arch{arch}, false); err != nil {
		t.Fatal(err)
	}
	for _, run := range warm.MetricsRuns() {
		frames := warm.Metrics(run).Frames()
		hb := heartbeat[run]
		if len(hb) == 0 || len(hb) >= len(frames) {
			t.Fatalf("%s: %d heartbeat frames vs %d retained; want a proper non-empty suffix (warm-up frames retained but not re-delivered)", run, len(hb), len(frames))
		}
		if !reflect.DeepEqual(frames[len(frames)-len(hb):], hb) {
			t.Errorf("%s: heartbeat frames are not the ring's tail", run)
		}
	}
}
