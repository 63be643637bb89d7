package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/workloads"
)

// logRecord is one record of a results.log, parsed independently of
// scanLog.
type logRecord struct {
	off     int64
	key     [32]byte
	payload []byte
	crcOK   bool
}

var testCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord is a log record for key holding payload.
func encodeRecord(key [32]byte, payload []byte) []byte {
	rec := append(append(key[:], 0, 0, 0, 0, 0, 0, 0, 0), payload...)
	binary.LittleEndian.PutUint32(rec[32:], uint32(len(payload)))
	crc := crc32.Checksum(append(append([]byte(nil), rec[:36]...), payload...), testCastagnoli)
	binary.LittleEndian.PutUint32(rec[36:], crc)
	return rec
}

// parseLog splits a log into its whole records and returns the bytes
// after the last one that a header's length does not cover.
func parseLog(data []byte) (recs []logRecord, tail []byte) {
	off := 0
	for len(data)-off >= 40 {
		n := int64(binary.LittleEndian.Uint32(data[off+32:]))
		if int64(len(data)-off-40) < n {
			break
		}
		r := logRecord{off: int64(off), key: [32]byte(data[off : off+32]), payload: data[off+40 : off+40+int(n)]}
		r.crcOK = binary.LittleEndian.Uint32(data[off+36:]) == crc32.Checksum(append(append([]byte(nil), data[off:off+36]...), r.payload...), testCastagnoli)
		recs = append(recs, r)
		off += 40 + int(n)
	}
	return recs, data[off:]
}

// readLog returns dir's log records, failing unless the log ends on a
// record boundary.
func readLog(t testing.TB, dir string) []logRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	recs, tail := parseLog(data)
	if len(tail) != 0 {
		t.Fatalf("log ends in %d bytes that are no whole record", len(tail))
	}
	return recs
}

// logOnly fails unless dir holds the log and the named bystanders and
// nothing else, and the log holds exactly want records, each whole and
// checksummed.
func logOnly(t testing.TB, dir string, want int, bystanders ...string) []logRecord {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if de.Name() != logName && !slices.Contains(bystanders, de.Name()) {
			t.Errorf("cache dir holds %s beside the log", de.Name())
		}
	}
	recs := readLog(t, dir)
	for _, r := range recs {
		if !r.crcOK {
			t.Errorf("record at %d (key %x) fails its checksum", r.off, r.key)
		}
	}
	if len(recs) != want {
		t.Fatalf("log holds %d records, want %d", len(recs), want)
	}
	return recs
}

// TestCacheReopenIgnoresStaleIndex is the restart contract for the disk
// tier: the log is the whole store. A cache opened over a log holding a
// valid record and one whose checksum fails, ending in a torn record,
// beside an older daemon's index.json, envelope file and temp file,
// serves the valid key from disk, trims the torn tail, misses the torn
// and the corrupt keys until the next Put appends them whole, and
// neither trusts nor touches anything else in the directory.
func TestCacheReopenIgnoresStaleIndex(t *testing.T) {
	dir := t.TempDir()
	res := func(cycles int64) *core.Result {
		return &core.Result{ProgramName: "swim", Machine: config.LowEnd(config.SMT2), Cycles: cycles}
	}
	valid, torn, corrupt, indexedOnly, fileOnly := [32]byte{1}, [32]byte{2}, [32]byte{3}, [32]byte{4}, [32]byte{5}
	logPath := filepath.Join(dir, logName)

	a, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(valid, JobSpec{App: "swim"}, res(100)); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(corrupt, JobSpec{App: "swim"}, res(300)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	whole := len(data)
	for _, r := range readLog(t, dir) {
		if r.key == corrupt {
			// 300 cycles become 700: still a whole envelope, one bit off.
			i := bytes.Index(r.payload, []byte(`"Cycles":300`))
			data[r.off+40+int64(i+len(`"Cycles":`))] ^= 0x04
		}
	}
	tornRec := encodeRecord(torn, []byte(`{"hash":"02","spec":{"app":"swim"},"result":{}}`))
	data = append(data, tornRec[:len(tornRec)-5]...)
	if err := os.WriteFile(logPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The leftover index vouches for a key the log lacks, in an older
	// daemon's format; the envelope file holds a whole result in the
	// one-file-per-hash layout; the temp file is junk.
	envelope, err := json.Marshal(envelope{Hash: fmt.Sprintf("%x", fileOnly), Spec: JobSpec{App: "swim"}, Result: res(500)})
	if err != nil {
		t.Fatal(err)
	}
	bystanders := map[string][]byte{
		"index.json":                     []byte(fmt.Sprintf(`[{"hash":"%x","app":"swim","machine":"low-end/SMT2","cycles":400}]`, indexedOnly)),
		"put-123.tmp":                    []byte("junk"),
		fmt.Sprintf("%x.json", fileOnly): envelope,
	}
	for name, data := range bystanders {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c, err := NewCache(0, dir)
	if err != nil {
		t.Fatalf("reopen over a torn log and a stale index: %v", err)
	}
	if st, err := os.Stat(logPath); err != nil || st.Size() != int64(whole) {
		t.Fatalf("torn tail not trimmed back to the last whole record: %v", err)
	}
	// Disk hits promote: first Get is a disk hit, second memory.
	if r, tier, ok := c.Get(valid); !ok || tier != TierDisk || r.Cycles != 100 {
		t.Fatalf("valid record not served from disk: ok=%v tier=%q", ok, tier)
	}
	if _, tier, ok := c.Get(valid); !ok || tier != TierMemory {
		t.Fatalf("disk hit not promoted to memory: ok=%v tier=%q", ok, tier)
	}
	for name, k := range map[string][32]byte{"only the stale index lists": indexedOnly, "only an envelope file holds": fileOnly, "torn": torn, "corrupt": corrupt} {
		if _, _, ok := c.Get(k); ok {
			t.Fatalf("a key %s served a result", name)
		}
	}
	if err := c.Put(torn, JobSpec{App: "swim"}, res(200)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(corrupt, JobSpec{App: "swim"}, res(301)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	d, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Entries != 0 {
		t.Fatalf("reopened cache holds %d entries before any lookup, want 0 (nothing is preloaded)", st.Entries)
	}
	for k, cycles := range map[[32]byte]int64{torn: 200, corrupt: 301} {
		if r, tier, ok := d.Get(k); !ok || tier != TierDisk || r.Cycles != cycles {
			t.Fatalf("Put did not append a good record for %x: ok=%v tier=%q", k[:1], ok, tier)
		}
	}
	if recs := readLog(t, dir); len(recs) != 4 || recs[1].crcOK {
		t.Fatalf("log holds %d records, want valid, corrupt (failing its checksum), torn and corrupt again", len(recs))
	}
	for name, data := range bystanders {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s changed or vanished (err %v)", name, err)
		}
	}
}

// TestCacheLogLocked: one process at a time holds a cache directory. A
// second one is refused with an error naming the directory, and is let
// in once the first closes the log. Two caches in one process are not
// excluded, and never serve each other's records as their own.
func TestCacheLogLocked(t *testing.T) {
	const probeEnv = "CLUSTERSMT_CACHE_LOCK_PROBE"
	if dir := os.Getenv(probeEnv); dir != "" {
		c, err := NewCache(0, dir)
		fmt.Printf("open: %v\n", err)
		if err == nil {
			c.Close()
		}
		return
	}
	dir := t.TempDir()
	probe := func() string {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestCacheLogLocked$", "-test.count=1")
		cmd.Env = append(os.Environ(), probeEnv+"="+dir)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("probe process: %v\n%s", err, out)
		}
		return string(out)
	}
	c, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if out := probe(); !strings.Contains(out, "open: service: cache dir "+dir+" is in use") {
		t.Fatalf("a second process opened a held cache dir:\n%s", out)
	}
	c.Close()
	if out := probe(); !strings.Contains(out, "open: <nil>") {
		t.Fatalf("a second process could not open a released cache dir:\n%s", out)
	}

	// Within one process the lock excludes nothing: two caches over one
	// directory append over each other. A record read through the stale
	// index is then a miss, never the other key's result.
	a, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res := func(cycles int64) *core.Result { return &core.Result{ProgramName: "swim", Cycles: cycles} }
	ka, kb := [32]byte{0xa}, [32]byte{0xb}
	if err := a.Put(ka, JobSpec{App: "swim"}, res(100)); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(kb, JobSpec{App: "swim"}, res(200)); err != nil { // same offset, same length
		t.Fatal(err)
	}
	a.Put([32]byte{0xc}, JobSpec{App: "swim"}, res(300)) // evicts ka from a's LRU
	if r, _, ok := a.Get(ka); ok {
		t.Fatalf("a served %d cycles for a key b's record overwrote", r.Cycles)
	}
}

// TestCachePutFailure: a disk write that fails part-way — a full disk —
// reports its error and counts it in disk_errors; the memory tier still
// answers; nothing partial stays in the log, which ends on a record
// boundary; and a cache reopened over the directory misses the failed
// key and serves every earlier one.
func TestCachePutFailure(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	res := func(cycles int64) *core.Result {
		return &core.Result{ProgramName: "swim", Machine: config.LowEnd(config.SMT2), Cycles: cycles}
	}
	earlier := [][32]byte{{5}, {6}}
	for i, k := range earlier {
		if err := c.Put(k, JobSpec{App: "swim"}, res(int64(50+i))); err != nil {
			t.Fatal(err)
		}
	}
	key := [32]byte{7}
	c.writeAt = func(b []byte, off int64) (int, error) {
		n, _ := c.log.WriteAt(b[:100], off) // the disk fills 100 bytes in
		return n, syscall.ENOSPC
	}
	if err := c.Put(key, JobSpec{App: "swim"}, res(100)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put on a full disk returned %v, want ENOSPC", err)
	}
	st := c.Stats()
	if st.DiskErrors != 1 {
		t.Fatalf("disk_errors = %d after one failed write, want 1", st.DiskErrors)
	}
	if raw, _ := json.Marshal(st); !bytes.Contains(raw, []byte(`"disk_errors":1`)) {
		t.Fatalf("stats render as %s, want disk_errors 1", raw)
	}
	if r, tier, ok := c.Get(key); !ok || tier != TierMemory || r.Cycles != 100 {
		t.Fatalf("memory tier after a failed disk write: ok=%v tier=%q", ok, tier)
	}
	logOnly(t, dir, len(earlier))
	c.Close()
	d, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.Get(key); ok {
		t.Fatal("reopened cache served an entry whose write failed")
	}
	for i, k := range earlier {
		if r, tier, ok := d.Get(k); !ok || tier != TierDisk || r.Cycles != int64(50+i) {
			t.Fatalf("earlier entry %d after a failed write: ok=%v tier=%q", i, ok, tier)
		}
	}
}

// TestCacheLogRace: goroutines Put and Get overlapping keys on one
// cache with a disk tier and an LRU too small to hold them, so Gets
// promote records from the log while others append. Every Get is a
// whole, verified result for its key or a miss, and afterwards the
// index and the LRU agree.
func TestCacheLogRace(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const keys, goroutines, ops = 16, 6, 300
	res := func(k int) *core.Result {
		return &core.Result{ProgramName: fmt.Sprintf("app%d", k), Machine: config.LowEnd(config.SMT2), Cycles: int64(1000 + k)}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (g*7 + i*5) % keys
				key := [32]byte{byte(k)}
				if (g+i)%3 == 0 {
					if err := c.Put(key, JobSpec{App: "swim"}, res(k)); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				if r, _, ok := c.Get(key); ok && (r.Cycles != int64(1000+k) || r.ProgramName != res(k).ProgramName) {
					t.Errorf("Get(%d) served %s/%d", k, r.ProgramName, r.Cycles)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.DiskHits == 0 || st.DiskErrors != 0 {
		t.Fatalf("stats %+v: want disk hits promoting records, no disk errors", st)
	}
	recs := readLog(t, dir)
	for _, r := range recs {
		if !r.crcOK {
			t.Fatalf("record at %d fails its checksum", r.off)
		}
	}
	if len(c.index) != keys {
		t.Fatalf("index holds %d keys, want %d", len(c.index), keys)
	}
	for key, ext := range c.index {
		disk, corrupt := c.read(key, ext)
		if disk == nil || corrupt {
			t.Fatalf("index entry %x does not read back", key[:1])
		}
		if el, ok := c.items[key]; ok {
			if mem := el.Value.(*cacheEntry).res; mem.Cycles != disk.Cycles || mem.ProgramName != disk.ProgramName {
				t.Fatalf("key %x: LRU holds %d, log %d", key[:1], mem.Cycles, disk.Cycles)
			}
		}
	}
	for key := range c.items {
		if _, ok := c.index[key]; !ok {
			t.Fatalf("LRU key %x is not in the index", key[:1])
		}
	}
}

// FuzzResultLog opens a cache over arbitrary bytes as its results.log.
// Opening never fails or panics; it trims only a torn tail, so the file
// ends on a record boundary; it indexes each key's latest record and
// none whose length runs past EOF. A Get is a miss or a result whose
// envelope re-encodes to the record's payload; a record whose checksum
// fails is never served and leaves the index once read.
func FuzzResultLog(f *testing.F) {
	dir := f.TempDir()
	c, err := NewCache(0, dir)
	if err != nil {
		f.Fatal(err)
	}
	for i, app := range []string{"swim", "ocean", "fmm"} {
		r := &core.Result{ProgramName: app, Machine: config.LowEnd(config.SMT2), Cycles: int64(100 * (i + 1))}
		if err := c.Put([32]byte{byte(i + 1)}, JobSpec{App: app, Arch: "SMT2"}, r); err != nil {
			f.Fatal(err)
		}
	}
	c.Close()
	valid, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	first := 40 + int(binary.LittleEndian.Uint32(valid[32:]))
	flipped := bytes.Clone(valid)
	flipped[first+36] ^= 1 // the second record's CRC
	huge := encodeRecord([32]byte{9}, []byte(`{}`))
	binary.LittleEndian.PutUint32(huge[32:], 1<<32-1)
	for _, seed := range [][]byte{
		valid,
		append(bytes.Clone(valid), valid[:20]...), // torn header
		valid[:len(valid)-10],                     // torn payload
		flipped,
		append(bytes.Clone(valid[:first]), huge...),
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := NewCache(0, dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer c.Close()
		recs, tail := parseLog(data)
		kept, err := os.ReadFile(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept, data[:len(data)-len(tail)]) {
			t.Fatalf("open kept %d of %d bytes, want all but the %d-byte torn tail", len(kept), len(data), len(tail))
		}
		latest := map[[32]byte]logRecord{}
		for _, r := range recs {
			latest[r.key] = r
		}
		if len(c.index) != len(latest) {
			t.Fatalf("index holds %d keys, the log %d", len(c.index), len(latest))
		}
		for key, r := range latest {
			if ext, ok := c.index[key]; !ok || ext.off != r.off || int(ext.n) != len(r.payload) {
				t.Fatalf("key %x indexed at %+v, its latest record is at %d", key[:4], ext, r.off)
			}
			res, _, ok := c.Get(key)
			if !r.crcOK {
				if _, kept := c.index[key]; ok || kept {
					t.Fatalf("record at %d fails its checksum: served %v, still indexed %v", r.off, ok, kept)
				}
				continue
			}
			var env envelope
			decodes := json.Unmarshal(r.payload, &env) == nil && env.Result != nil
			if ok != decodes {
				t.Fatalf("record at %d: served %v, payload decodes %v", r.off, ok, decodes)
			}
			if !ok {
				continue
			}
			env.Result = res
			if again, err := json.Marshal(env); err != nil || !bytes.Equal(again, r.payload) {
				t.Fatalf("record at %d: served envelope re-encodes to %s, want %s", r.off, again, r.payload)
			}
		}
	})
}

// TestServiceDiskCacheRecoversFromCrash is the server-level restart
// test: server A completes a job and dies without the graceful Close —
// its log released as a process exit would, a torn record left at its
// end by an append cut short, an older daemon's index.json corrupt in
// the directory — and server B on the same directory must still serve
// the same spec instantly from the disk tier with identical bytes.
func TestServiceDiskCacheRecoversFromCrash(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{App: "tomcatv", Arch: "FA4"}

	srvA, err := New(Options{DefaultSize: workloads.SizeTest, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	status, j, _ := submit(t, tsA, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submission on A: status %d", status)
	}
	first := waitJob(t, tsA, j.ID)
	if first.Status != StateDone {
		t.Fatalf("job on A failed: %+v", first)
	}
	tsA.Close()
	// Crash: no srvA.Close(ctx), no drain. A leftover index is actively
	// wrong rather than merely missing.
	srvA.cache.Close()
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`[{"hash":"feed`), 0o644); err != nil {
		t.Fatal(err)
	}
	logFile, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := encodeRecord([32]byte{0xfe}, bytes.Repeat([]byte("x"), 64))
	if _, err := logFile.Write(torn[:50]); err != nil {
		t.Fatal(err)
	}
	logFile.Close()
	// Silence the leaked pool on test exit.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srvA.Close(ctx)
	})

	srvB, err := New(Options{DefaultSize: workloads.SizeTest, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	defer srvB.Close(context.Background())
	logOnly(t, dir, 1, "index.json")

	status, second, _ := submit(t, tsB, spec)
	if status != http.StatusOK {
		t.Fatalf("resubmission on B: status %d, want 200 (instant)", status)
	}
	if !second.CacheHit || second.CacheTier != TierDisk {
		t.Fatalf("resubmission on B not a disk hit: %+v", second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("crash-recovered result differs from the original JSON")
	}
}

// getBody fetches url and returns its body, failing on any status but
// 200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestFigureSurvivesRestart: figure cells and jobs share the result
// cache. A figure requested after a job reuses that job's result; a
// daemon restarted over the same directory answers the figure from disk
// with zero simulations, byte for byte as JSON and as text; and a job
// for one of its cells is then a cache hit.
func TestFigureSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const fig5 = "/v1/figures/5?size=test"
	cell := JobSpec{App: "ocean", Arch: "FA4", HighEnd: true}

	srvA, tsA := newTestServer(t, Options{CacheDir: dir})
	status, j, _ := submit(t, tsA, cell)
	if status != http.StatusAccepted {
		t.Fatalf("cell job on A: status %d", status)
	}
	if j = waitJob(t, tsA, j.ID); j.Status != StateDone {
		t.Fatalf("cell job on A failed: %+v", j)
	}
	jsonA := getBody(t, tsA.URL+fig5)
	textA := getBody(t, tsA.URL+fig5+"&format=text")
	// Fig. 5 is 6 apps x 5 archs; the job already ran one of its cells.
	if n := srvA.suite.Simulations(); n != 30 {
		t.Fatalf("job then figure on A ran %d simulations, want 30 (the job's cell reused)", n)
	}
	logOnly(t, dir, 30)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tsA.Close()
	if err := srvA.Close(ctx); err != nil {
		t.Fatal(err)
	}

	srvB, tsB := newTestServer(t, Options{CacheDir: dir})
	if got := getBody(t, tsB.URL+fig5); !bytes.Equal(got, jsonA) {
		t.Fatal("figure JSON after a restart differs from the first daemon's")
	}
	if got := getBody(t, tsB.URL+fig5+"&format=text"); !bytes.Equal(got, textA) {
		t.Fatalf("figure text after a restart differs:\n%s\nvs\n%s", got, textA)
	}
	var health struct {
		Simulations int64 `json:"simulations"`
	}
	if err := json.Unmarshal(getBody(t, tsB.URL+"/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if health.Simulations != 0 {
		t.Fatalf("restarted daemon ran %d simulations for a figure on disk, want 0", health.Simulations)
	}
	other := JobSpec{App: "swim", Arch: "SMT2", HighEnd: true}
	status, hit, _ := submit(t, tsB, other)
	if status != http.StatusOK || !hit.CacheHit {
		t.Fatalf("job for a figure cell after the restart: status %d, %+v; want an inline cache hit", status, hit)
	}
	if n := srvB.suite.Simulations(); n != 0 {
		t.Fatalf("restarted daemon ran %d simulations, want 0", n)
	}
}

// TestColdJobWritesOnce pins the cost of a cold job now that the Store
// hook writes results: one simulation, one cache write, one entry (one
// record in the log, under the job's hash), and
// the two counted misses it has always cost (the submission's lookup and
// the queue's re-check) — the hook does not look the job up again.
func TestColdJobWritesOnce(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Options{CacheDir: dir})
	_, j, _ := submit(t, ts, JobSpec{App: "swim", Arch: "SMT4"})
	if j = waitJob(t, ts, j.ID); j.Status != StateDone || j.CacheHit {
		t.Fatalf("cold job: %+v", j)
	}
	st := srv.cache.Stats()
	if st.Misses != 2 || st.Hits != 0 || st.DiskHits != 0 || st.Entries != 1 {
		t.Fatalf("cache after one cold job: %+v, want 2 misses, no hits, 1 entry", st)
	}
	body, _ := scrapeMetrics(t, ts)
	if v := metricValue(t, body, "clusterd_cache_write_seconds_count"); v != 1 {
		t.Fatalf("cache writes = %v, want 1", v)
	}
	if n := srv.suite.Simulations(); n != 1 {
		t.Fatalf("%d simulations, want 1", n)
	}
	if recs := logOnly(t, dir, 1); fmt.Sprintf("%x", recs[0].key) != j.Hash {
		t.Fatalf("the one record is keyed %x, want the job's hash %s", recs[0].key, j.Hash)
	}
}
