package service

import (
	"container/list"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

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
// simulate to it. Tier 2, enabled by a non-empty directory, is one
// append-only log, <dir>/results.log: every Put appends one record
// holding the result's JSON envelope, and an in-memory index maps each
// key to its latest record, so identical submissions and figure cells
// are served across daemon restarts. A disk lookup is one index probe
// and one read, a key the index lacks never touches the file system,
// and disk hits are promoted into the LRU. Opening the cache rebuilds
// the index from the record headers alone; no result is decoded and
// nothing else in the directory is ever opened.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[[32]byte]*list.Element
	index map[[32]byte]extent // key -> its latest record in the log

	// wmu serialises appends. end is the log's size, always the end of
	// its last whole record.
	wmu     sync.Mutex
	log     *os.File // nil = memory-only
	end     int64
	writeAt func(b []byte, off int64) (int, error) // log.WriteAt; tests make it fail

	hits, diskHits, misses, diskErrors uint64
}

type cacheEntry struct {
	key [32]byte
	res *core.Result
}

// envelope is a log record's payload.
type envelope struct {
	Hash   string       `json:"hash"`
	Spec   JobSpec      `json:"spec"`
	Result *core.Result `json:"result"`
}

// A log record is a headerSize-byte header, then the payload: the
// compact JSON envelope. The header is the key, the payload length
// (uint32) and the CRC-32C of key, length and payload (uint32), both
// little-endian.
const (
	logName    = "results.log"
	headerSize = 32 + 4 + 4
)

// extent locates a record in the log: its offset and payload length.
type extent struct {
	off int64
	n   uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordCRC is the checksum a whole record's header carries.
func recordCRC(rec []byte) uint32 {
	crc := crc32.Update(0, castagnoli, rec[:36])
	return crc32.Update(crc, castagnoli, rec[headerSize:])
}

// DefaultCacheEntries bounds the in-memory LRU when the caller passes 0.
const DefaultCacheEntries = 256

// NewCache returns a cache holding up to capEntries results in memory
// (0 = DefaultCacheEntries) and, when dir is non-empty, persisting
// every stored result to dir's log (the directory is created if
// needed). It refuses a directory whose log another process holds.
func NewCache(capEntries int, dir string) (*Cache, error) {
	if capEntries <= 0 {
		capEntries = DefaultCacheEntries
	}
	c := &Cache{
		cap:   capEntries,
		ll:    list.New(),
		items: make(map[[32]byte]*list.Element),
	}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: cache dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: cache log: %w", err)
	}
	// A POSIX lock belongs to the process: it refuses a second daemon,
	// not a second Cache in this one, and goes when this process exits
	// or closes the log.
	lk := syscall.Flock_t{Type: syscall.F_WRLCK, Whence: io.SeekStart}
	if err := syscall.FcntlFlock(f.Fd(), syscall.F_SETLK, &lk); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: cache dir %s is in use by another process: %w", dir, err)
	}
	if c.index, c.end, err = scanLog(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: cache log: %w", err)
	}
	c.log, c.writeAt = f, f.WriteAt
	return c, nil
}

// scanLog indexes every record from its header alone, reading no
// payload, and truncates a torn tail — a header or a payload cut short
// — back to the last whole record. A record whose checksum fails is
// indexed like any other: Get verifies every record it reads and drops
// one that fails, so it reads as a miss until a Put appends a good one.
func scanLog(f *os.File) (map[[32]byte]extent, int64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := st.Size()
	index := make(map[[32]byte]extent)
	var h [headerSize]byte
	var off int64
	for off+headerSize <= size {
		if _, err := f.ReadAt(h[:], off); err != nil {
			return nil, 0, err
		}
		n := binary.LittleEndian.Uint32(h[32:36])
		if off+headerSize+int64(n) > size {
			break
		}
		index[[32]byte(h[:32])] = extent{off, n}
		off += headerSize + int64(n)
	}
	if off < size {
		if err := f.Truncate(off); err != nil {
			return nil, 0, err
		}
	}
	return index, off, nil
}

// Close closes the log, releasing the directory to another process.
// The memory tier still answers; later disk reads miss and later
// writes fail.
func (c *Cache) Close() error {
	if c.log == nil {
		return nil
	}
	return c.log.Close()
}

// Get returns the cached result for key and the tier that served it.
func (c *Cache) Get(key [32]byte) (*core.Result, string, bool) {
	c.mu.Lock()
	if el, hit := c.items[key]; hit {
		c.ll.MoveToFront(el)
		c.hits++
		res := el.Value.(*cacheEntry).res
		c.mu.Unlock()
		return res, TierMemory, true
	}
	ext, onDisk := c.index[key]
	if !onDisk {
		c.misses++
		c.mu.Unlock()
		return nil, "", false
	}
	c.mu.Unlock()

	res, corrupt := c.read(key, ext)
	c.mu.Lock()
	defer c.mu.Unlock()
	if res == nil {
		if corrupt && c.index[key] == ext {
			delete(c.index, key)
		}
		c.misses++
		return nil, "", false
	}
	c.diskHits++
	c.insertLocked(key, res)
	return res, TierDisk, true
}

// read reads key's record at ext, verifies it and decodes its result.
// A record that fails verification — another key's, or one whose
// checksum or envelope is bad — is corrupt; a failed read is not (the
// log may have been closed).
func (c *Cache) read(key [32]byte, ext extent) (res *core.Result, corrupt bool) {
	rec := make([]byte, headerSize+int(ext.n))
	if _, err := c.log.ReadAt(rec, ext.off); err != nil {
		return nil, false
	}
	var env envelope
	if [32]byte(rec[:32]) != key || binary.LittleEndian.Uint32(rec[36:40]) != recordCRC(rec) ||
		json.Unmarshal(rec[headerSize:], &env) != nil {
		return nil, true
	}
	return env.Result, false
}

// Put stores a result under key in both tiers. A failed disk write is
// returned and counted in Stats.DiskErrors; the memory tier keeps the
// result either way.
func (c *Cache) Put(key [32]byte, spec JobSpec, res *core.Result) error {
	c.mu.Lock()
	c.insertLocked(key, res)
	c.mu.Unlock()

	if c.log == nil {
		return nil
	}
	err := c.append(key, envelope{Hash: fmt.Sprintf("%x", key), Spec: spec, Result: res})
	if err != nil {
		c.mu.Lock()
		c.diskErrors++
		c.mu.Unlock()
	}
	return err
}

// append writes key's record to the log's end in one write and indexes
// it. A failed or short write truncates the log back to that end, so a
// crash or a full disk leaves the earlier records and none of this one.
func (c *Cache) append(key [32]byte, env envelope) error {
	payload, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("service: encode cache entry: %w", err)
	}
	rec := make([]byte, headerSize, headerSize+len(payload))
	copy(rec, key[:])
	binary.LittleEndian.PutUint32(rec[32:36], uint32(len(payload)))
	rec = append(rec, payload...)
	binary.LittleEndian.PutUint32(rec[36:40], recordCRC(rec))

	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.writeAt(rec, c.end); err != nil {
		// Should the truncate fail too, the torn bytes lie past end:
		// the next append overwrites them, and what it leaves the next
		// open trims or reads as a record that fails its checksum.
		_ = c.log.Truncate(c.end)
		return fmt.Errorf("service: cache log append: %w", err)
	}
	c.mu.Lock()
	c.index[key] = extent{c.end, uint32(len(payload))}
	c.mu.Unlock()
	c.end += int64(len(rec))
	return nil
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

// Stats is a point-in-time cache summary for /healthz. DiskErrors
// counts results the disk tier failed to persist (a full disk, a
// closed log): each stays in memory only.
type Stats struct {
	Entries    int    `json:"entries"`
	Capacity   int    `json:"capacity"`
	Hits       uint64 `json:"hits"`
	DiskHits   uint64 `json:"disk_hits"`
	Misses     uint64 `json:"misses"`
	DiskErrors uint64 `json:"disk_errors"`
	Disk       bool   `json:"disk"`
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:    c.ll.Len(),
		Capacity:   c.cap,
		Hits:       c.hits,
		DiskHits:   c.diskHits,
		Misses:     c.misses,
		DiskErrors: c.diskErrors,
		Disk:       c.log != nil,
	}
}
