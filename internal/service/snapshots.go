package service

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"time"

	"clustersmt/internal/telemetry"
)

// snapshotStore persists warmed checkpoints (harness.SnapshotStore)
// as content-addressed files in the service cache directory, alongside
// the result envelopes. Filenames are "snap-<hex64>.bin", so the
// result cache — which only reads 64-hex ".json" envelopes — never
// confuses the two populations, and a snapshot written by one daemon
// run seeds every later one's warm-ups.
//
// Both methods are best-effort by contract: a miss or failed write
// just means the suite re-runs the warm-up, so I/O errors are
// swallowed rather than failing simulations.
type snapshotStore struct {
	s *Server
}

func (st snapshotStore) path(key string) string {
	return filepath.Join(st.s.opts.CacheDir, "snap-"+key+".bin")
}

// LoadSnapshot reads one checkpoint. A load that finds one is recorded
// as a histogram sample and, when the warm-up belongs to a traced job,
// a snapshot-fetch span.
func (st snapshotStore) LoadSnapshot(ctx context.Context, key string) ([]byte, bool) {
	if !isHexHash(key) {
		return nil, false
	}
	start := time.Now()
	data, err := os.ReadFile(st.path(key))
	if err != nil {
		return nil, false
	}
	observe(st.s.hist(func(t *svcTelemetry) *telemetry.Histogram { return t.snapFetch }), time.Since(start))
	st.s.span(telemetry.TraceIDFrom(ctx), "snapshot-fetch", start, map[string]string{"key": key})
	return data, true
}

// SaveSnapshot writes atomically (temp file + rename), matching the
// result cache's crash discipline: a torn write leaves the old entry
// or none, and core.Restore rejects anything truncated regardless.
func (st snapshotStore) SaveSnapshot(key string, data []byte) {
	if isHexHash(key) {
		_ = writeFileAtomic(st.path(key), "snap-*.tmp", data) // best-effort by contract
	}
}

// Snapshots returns the number of persisted warm-up checkpoints in the
// store directory (for /healthz).
func (st snapshotStore) Snapshots() int {
	entries, err := os.ReadDir(st.s.opts.CacheDir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range entries {
		name := de.Name()
		if !de.IsDir() && strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".bin") {
			n++
		}
	}
	return n
}
