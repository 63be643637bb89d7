package main

import (
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"clustersmt/internal/core"
)

// The golden corpus: one digest per simulated result the benchmark
// produces — every figure cell (ref and test size), every (machine,
// policy) allocation column, every sweep point (generated from scratch
// runs, so fork == scratch is checked on every run) and the cold jobs
// of seed 1. A simulator speed-up leaves every simulated statistic
// identical, so golden_mismatches must stay 0.

//go:embed golden/*.json
var goldenFS embed.FS

const goldenDir = "benchmark/golden"

// Corpus kinds; each is one file under golden/.
const (
	kCell  = "cells"  // "<size>/<machine>/<app>"
	kAlloc = "alloc"  // "<machine>/<policy>"
	kSweep = "sweep"  // synth(...) name
	kJob   = "jobs-1" // "<cold index>" of seed 1, digests cut short
)

var corpusKinds = []string{kCell, kAlloc, kSweep, kJob}

// The seed-1 job corpus holds the first goldenJobs cold jobs of the
// stream (a timed run reaches about two thirds of them; later ones are
// verified by sample, like other seeds), with digests cut to
// jobDigestLen hex digits: 48 bits is ample against accidental
// agreement and keeps the file small.
const (
	goldenJobs   = 2000
	jobDigestLen = 12
)

type corpus struct {
	mu     sync.Mutex
	m      map[string]map[string]string
	update bool // record digests instead of comparing (-update-golden)
}

func loadCorpus(update bool) (*corpus, error) {
	c := &corpus{m: map[string]map[string]string{}, update: update}
	for _, k := range corpusKinds {
		c.m[k] = map[string]string{}
		raw, err := goldenFS.ReadFile("golden/" + k + ".json")
		if err != nil {
			if update {
				continue
			}
			return nil, fmt.Errorf("golden corpus: %w (run -update-golden)", err)
		}
		m := map[string]string{}
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("golden corpus %s: %w", k, err)
		}
		c.m[k] = m
	}
	return c, nil
}

// match reports whether d is the golden digest for (kind, key). In
// update mode it records d and always matches.
func (c *corpus) match(kind, key, d string) bool {
	if kind == kJob {
		d = d[:jobDigestLen]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.update {
		c.m[kind][key] = d
		return true
	}
	return c.m[kind][key] == d
}

func (c *corpus) has(kind, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[kind][key]
	return ok
}

// save rewrites the corpus files; the working directory must be the
// repository root.
func (c *corpus) save() error {
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return err
	}
	for _, k := range corpusKinds {
		raw, err := json.MarshalIndent(c.m[k], "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(goldenDir, k+".json"), append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// digest is SHA-256 over the benchmark's own projection of a Result:
// every simulated statistic, none of the host-side or descriptive
// fields. Floats enter by their bits, so the digest survives the JSON
// round trip through clusterd exactly.
func digest(r *core.Result) string {
	h := sha256.New()
	var b [8]byte
	u := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	u(uint64(r.Cycles), r.Committed)
	for _, c := range r.Slots.Counts {
		u(math.Float64bits(c))
	}
	u(uint64(len(r.PerThreadCommitted)))
	u(r.PerThreadCommitted...)
	m := &r.MemStats
	u(m.Loads, m.Stores, m.LoadRetries)
	u(m.ByClass[:]...)
	u(m.LatencyByClass[:]...)
	u(m.StoreHits, m.StoreUpgrade, m.StoreMisses, m.TLBMisses)
	u(r.BranchLookups, r.BranchMispredicts, r.BTBLookups, r.BTBMispredicts,
		r.RenameStalls, r.WindowFullStalls, r.ForwardedLoads)
	u(r.LockAcquires, r.LockConflicts, r.BarrierWaits)
	u(r.Invalidations, r.Downgrades, r.Writebacks, r.ThreeHops, r.NetMessages)
	u(r.AllocMigrations, r.AllocEpochs)
	return hex.EncodeToString(h.Sum(nil))
}

// loadGolden parses the embedded corpus: part of every set-up. A
// corpus being regenerated is kept.
func (e *env) loadGolden() error {
	if e.golden != nil && e.golden.update {
		return nil
	}
	c, err := loadCorpus(false)
	e.golden = c
	return err
}
