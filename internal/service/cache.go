package service

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"clustersmt/internal/core"
)

// Cache tiers reported in job responses.
const (
	TierMemory = "memory"
	TierDisk   = "disk"
)

// Cache is the two-tier content-addressed result store. Tier 1 is an
// in-memory LRU keyed by the job's spec hash. Jobs look it up before
// touching a Suite; below the harness singleflight (which deduplicates
// concurrent identical runs within one process lifetime) the suites'
// Store hook looks figure cells up in it and writes every result they
// simulate to it. Tier 2, enabled by a non-empty directory, persists
// one JSON envelope per result keyed by the hex hash, so identical
// submissions and figure cells are served across daemon restarts; disk
// hits are promoted into the LRU. The envelope files are the whole
// store: a lookup reads
// exactly its own key's file, so nothing is scanned at start-up and
// nothing else in the directory is ever opened.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[[32]byte]*list.Element
	dir   string // "" = memory-only

	hits, diskHits, misses uint64
}

type cacheEntry struct {
	key [32]byte
	res *core.Result
}

// envelope is the on-disk per-entry format.
type envelope struct {
	Hash   string       `json:"hash"`
	Spec   JobSpec      `json:"spec"`
	Result *core.Result `json:"result"`
}

// DefaultCacheEntries bounds the in-memory LRU when the caller passes 0.
const DefaultCacheEntries = 256

// NewCache returns a cache holding up to capEntries results in memory
// (0 = DefaultCacheEntries) and, when dir is non-empty, persisting
// every stored result under it (the directory is created if needed).
func NewCache(capEntries int, dir string) (*Cache, error) {
	if capEntries <= 0 {
		capEntries = DefaultCacheEntries
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache dir: %w", err)
		}
	}
	return &Cache{
		cap:   capEntries,
		ll:    list.New(),
		items: make(map[[32]byte]*list.Element),
		dir:   dir,
	}, nil
}

// Get returns the cached result for key and the tier that served it.
func (c *Cache) Get(key [32]byte) (res *core.Result, tier string, ok bool) {
	c.mu.Lock()
	if el, hit := c.items[key]; hit {
		c.ll.MoveToFront(el)
		c.hits++
		res = el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, TierMemory, true
	}
	c.mu.Unlock()

	if c.dir == "" {
		c.miss()
		return nil, "", false
	}
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		c.miss()
		return nil, "", false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Result == nil {
		// A truncated or corrupt entry is treated as a miss; the next
		// Put rewrites it atomically.
		c.miss()
		return nil, "", false
	}
	c.mu.Lock()
	c.diskHits++
	c.insertLocked(key, env.Result)
	c.mu.Unlock()
	return env.Result, TierDisk, true
}

func (c *Cache) miss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// Put stores a result under key in both tiers. The disk write is
// atomic (temp file + rename), so a crash mid-write leaves either the
// old entry or none — never a torn one.
func (c *Cache) Put(key [32]byte, spec JobSpec, res *core.Result) error {
	c.mu.Lock()
	c.insertLocked(key, res)
	c.mu.Unlock()

	if c.dir == "" {
		return nil
	}
	raw, err := json.Marshal(envelope{Hash: fmt.Sprintf("%x", key), Spec: spec, Result: res})
	if err != nil {
		return fmt.Errorf("service: encode cache entry: %w", err)
	}
	return writeFileAtomic(c.path(key), raw)
}

// writeFileAtomic writes data to path through a temp file in the same
// directory and a rename, so a crash or a full disk leaves the old file
// or none — never a torn one.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

func (c *Cache) insertLocked(key [32]byte, res *core.Result) {
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

func (c *Cache) path(key [32]byte) string {
	return filepath.Join(c.dir, fmt.Sprintf("%x.json", key))
}

// Stats is a point-in-time cache summary for /healthz.
type Stats struct {
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	Disk     bool   `json:"disk"`
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:  c.ll.Len(),
		Capacity: c.cap,
		Hits:     c.hits,
		DiskHits: c.diskHits,
		Misses:   c.misses,
		Disk:     c.dir != "",
	}
}
