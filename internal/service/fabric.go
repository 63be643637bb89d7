// Fabric: the routing and fail-over layer turning independent clusterd
// daemons into one fleet. A coordinator (coordinator.go) owns membership and
// routes jobs by consistent hash over the content-addressed spec hash
// (config.Ring); workers (worker.go) register over HTTP and heartbeat
// periodically. This file holds what both roles share: the wire
// types, the peer cache-probe and snapshot-ship endpoints every node
// serves, and the federated snapshot store.
//
// The design rule throughout is "degraded, never wrong": every fabric
// failure — an unreachable peer, a lost coordinator, a torn transfer —
// falls back to computing locally from scratch. The fabric only ever
// saves work; results are bit-identical with or without it.
package service

import (
	"context"
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"clustersmt/internal/telemetry"
)

// DefaultHeartbeatInterval paces worker heartbeats when Options leaves
// HeartbeatInterval zero; a worker missing heartbeats for the timeout
// (default 3 intervals) is evicted and its keys rebalance.
const DefaultHeartbeatInterval = 5 * time.Second

// registerRequest is a worker's announcement to the coordinator, sent
// on registration and repeated (with fresh load figures) on every
// heartbeat.
type registerRequest struct {
	// URL is the worker's advertise address — its identity on the hash
	// ring and the base every peer uses to reach it.
	URL string `json:"url"`
	// Version is the worker's build version; a mismatch with the
	// coordinator is logged on both ends but never rejected (results
	// are content-addressed, so mixed fleets stay correct).
	Version string `json:"version"`
	// Workers and QueueCap describe capacity; Depth and Running report
	// current load. The coordinator folds capacity into Retry-After.
	Workers  int `json:"workers"`
	QueueCap int `json:"queue_cap"`
	Depth    int `json:"depth"`
	Running  int `json:"running"`
}

// registerResponse acknowledges a registration or heartbeat.
type registerResponse struct {
	Version string `json:"version"`
	// Peers lists the other registered workers' advertise URLs — the
	// probe/ship targets. Refreshed on every heartbeat, so membership
	// changes propagate within one interval.
	Peers []string `json:"peers"`
}

// fabricHTTP issues all intra-fleet requests. No client-level timeout:
// job dispatches long-poll for minutes; probes and snapshot fetches
// bound themselves with per-request contexts.
var fabricHTTP = &http.Client{}

// handleFabricProbe answers a peer's cache probe: does this node hold
// the result for the given spec hash? The lookup is the ordinary
// two-tier Get — memory LRU first, then the disk envelope — so a probe
// hit is exactly as trustworthy as a local cache hit, and it promotes
// the entry the same way. A miss is 404; the prober moves on.
func (s *Server) handleFabricProbe(w http.ResponseWriter, r *http.Request) {
	hexHash := r.PathValue("hash")
	if !isHexHash(hexHash) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad probe hash %q", hexHash))
		return
	}
	raw, _ := hex.DecodeString(hexHash)
	var key [32]byte
	copy(key[:], raw)
	res, tier, ok := s.cache.Get(key)
	if !ok {
		s.probeServedMisses.Add(1)
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no cached result for %s", hexHash))
		return
	}
	s.probeServedHits.Add(1)
	w.Header().Set("X-Cache-Tier", tier)
	writeJSON(w, http.StatusOK, envelope{Hash: hexHash, Result: res})
}

// handleFabricSnap ships a warmed checkpoint (snap-<hex64>.bin) to a
// peer, so one node's warm-up pays for the whole fleet's forks.
func (s *Server) handleFabricSnap(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !isHexHash(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad snapshot key %q", key))
		return
	}
	if s.opts.CacheDir == "" {
		s.snapServedMisses.Add(1)
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no snapshot store"))
		return
	}
	data, ok := snapshotStore{dir: s.opts.CacheDir}.LoadSnapshot(key)
	if !ok {
		s.snapServedMisses.Add(1)
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no snapshot %s", key))
		return
	}
	s.snapServedHits.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *Server) handleFabricRegister(w http.ResponseWriter, r *http.Request) {
	s.fabricMembership(w, r, true)
}

func (s *Server) handleFabricHeartbeat(w http.ResponseWriter, r *http.Request) {
	s.fabricMembership(w, r, false)
}

// fabricMembership is the shared body of register and heartbeat: both
// carry the same announcement, but only register may introduce a new
// member. A heartbeat from an evicted (or never-seen) worker gets 404,
// telling it to re-register — that round trip is what re-admits a
// worker after a coordinator restart or an eviction it didn't notice.
func (s *Server) fabricMembership(w http.ResponseWriter, r *http.Request, admit bool) {
	c := s.coordinator()
	if c == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: not a coordinator"))
		return
	}
	var req registerRequest
	status, _ := decodeBody(w, r, &req)
	if status == http.StatusOK && req.URL == "" {
		status = http.StatusBadRequest
	}
	if status != http.StatusOK {
		writeError(w, status, fmt.Errorf("service: bad fabric announcement"))
		return
	}
	peers, known := c.upsert(req, admit)
	if !known {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown worker %s (re-register)", req.URL))
		return
	}
	writeJSON(w, http.StatusOK, registerResponse{Version: s.version, Peers: peers})
}

// fedSnapshots is the fleet-wide harness.SnapshotStore: loads try the
// local directory first, then (on a worker) each known peer over
// /fabric/snap; a shipped checkpoint is re-persisted locally so it is
// fetched at most once per node. Saves are local-only — the checkpoint
// becomes visible to the fleet through the owner answering ship
// requests, not by pushing. All paths are best-effort by the
// SnapshotStore contract: any failure just re-runs the warm-up.
type fedSnapshots struct {
	s *Server
}

func (f fedSnapshots) LoadSnapshot(ctx context.Context, key string) ([]byte, bool) {
	start := time.Now()
	dir := f.s.opts.CacheDir
	if dir != "" {
		if data, ok := (snapshotStore{dir: dir}).LoadSnapshot(key); ok {
			f.observe(ctx, key, start, "local")
			return data, true
		}
	}
	wk := f.s.workerRef()
	if wk == nil || !isHexHash(key) {
		return nil, false
	}
	for _, peer := range wk.peerList() {
		data, ok := wk.fetchSnapshot(ctx, peer, key)
		if !ok {
			continue
		}
		if dir != "" {
			snapshotStore{dir: dir}.SaveSnapshot(key, data)
		}
		f.observe(ctx, key, start, peer)
		return data, true
	}
	f.observe(ctx, key, start, "miss")
	return nil, false
}

// observe records one federated load as a histogram sample and (when
// the warm-up belongs to a traced job) a snapshot-fetch span naming
// where the checkpoint came from.
func (f fedSnapshots) observe(ctx context.Context, key string, start time.Time, source string) {
	s := f.s
	observe(s.hist(func(t *svcTelemetry) *telemetry.Histogram { return t.snapFetch }), time.Since(start))
	s.span(telemetry.TraceIDFrom(ctx), "snapshot-fetch", start,
		map[string]string{"key": key, "source": source})
}

func (f fedSnapshots) SaveSnapshot(key string, data []byte) {
	if dir := f.s.opts.CacheDir; dir != "" {
		snapshotStore{dir: dir}.SaveSnapshot(key, data)
	}
}
