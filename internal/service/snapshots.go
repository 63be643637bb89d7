package service

import (
	"os"
	"path/filepath"
	"strings"
)

// snapshotStore persists warmed checkpoints (harness.SnapshotStore)
// as content-addressed files in the service cache directory, alongside
// the result envelopes. Filenames are "snap-<hex64>.bin", so the
// result cache's reconciler — which only adopts 64-hex ".json"
// envelopes — never confuses the two populations, and a snapshot
// written by one daemon run seeds every later one's warm-ups.
//
// Both methods are best-effort by contract: a miss or failed write
// just means the suite re-runs the warm-up, so I/O errors are
// swallowed rather than failing simulations.
type snapshotStore struct {
	dir string
}

func (s snapshotStore) path(key string) string {
	return filepath.Join(s.dir, "snap-"+key+".bin")
}

func (s snapshotStore) LoadSnapshot(key string) ([]byte, bool) {
	if !isHexHash(key) {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// SaveSnapshot writes atomically (temp file + rename), matching the
// result cache's crash discipline: a torn write leaves the old entry
// or none, and core.Restore rejects anything truncated regardless.
func (s snapshotStore) SaveSnapshot(key string, data []byte) {
	if isHexHash(key) {
		_ = writeFileAtomic(s.path(key), "snap-*.tmp", data) // best-effort by contract
	}
}

// Snapshots returns the number of persisted warm-up checkpoints in the
// store directory (for /healthz).
func (s snapshotStore) Snapshots() int {
	entries, err := os.ReadDir(s.dir)
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
