package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"clustersmt/internal/core"
	"clustersmt/internal/telemetry"
)

// probeTimeout bounds one peer cache probe or snapshot fetch. Probes
// run on the simulation path (ahead of every owner-side run), so a
// hung peer must cost bounded time before the scratch fallback.
const probeTimeout = 5 * time.Second

// maxPeerBodyBytes bounds how much of one peer response is read: a
// lying peer can cost a bounded timeout (above), never unbounded
// memory. The largest honest response is a warmed checkpoint: megabytes
// today, far below the bound.
const maxPeerBodyBytes = 256 << 20

// peerBody is the bounded view of a peer's response body; a response
// cut off at the bound fails to decode and reads as a miss.
func peerBody(resp *http.Response) io.Reader {
	return io.LimitReader(resp.Body, maxPeerBodyBytes)
}

// peerStats counts one peer's probe outcomes as seen from this worker.
type peerStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Errors uint64 `json:"errors"`
}

// worker is the fabric client side: it registers this server with a
// coordinator, heartbeats until closed, and — as the server's Remote
// hook — probes the peers the coordinator reports for already-computed
// results before any local simulation runs. Jobs rebalanced onto this
// node after a membership change are thereby served from wherever they
// were first computed; only a fleet-wide miss simulates.
type worker struct {
	s        *Server
	coord    string // coordinator base URL
	self     string // advertise URL (this worker's ring identity)
	interval time.Duration

	mu         sync.Mutex
	peers      []string
	stats      map[string]*peerStats
	registered bool
	lastErr    string

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

func newWorker(s *Server, coordURL, advertiseURL string, interval time.Duration) *worker {
	return &worker{
		s:        s,
		coord:    coordURL,
		self:     advertiseURL,
		interval: interval,
		stats:    make(map[string]*peerStats),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// loop registers, then heartbeats every interval until closed. A 404
// (coordinator restarted, or this worker was evicted while partitioned)
// downgrades to unregistered and the next tick re-registers; transport
// errors are recorded and retried — the worker keeps serving its local
// API regardless, so a lost coordinator degrades routing, not service.
func (w *worker) loop() {
	defer close(w.done)
	w.announce()
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.announce()
		}
	}
}

func (w *worker) close() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

func (w *worker) announce() {
	w.mu.Lock()
	path := "/fabric/register"
	if w.registered {
		path = "/fabric/heartbeat"
	}
	w.mu.Unlock()

	req := registerRequest{
		URL:      w.self,
		Version:  w.s.version,
		Workers:  w.s.pool.Workers(),
		QueueCap: w.s.pool.Cap(),
		Depth:    w.s.pool.Depth(),
		Running:  w.s.pool.Running(),
	}
	body, _ := json.Marshal(req)
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.coord+path, bytes.NewReader(body))
	if err != nil {
		w.noteError(err)
		return
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := fabricHTTP.Do(httpReq)
	if err != nil {
		w.noteError(err)
		return
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var ack registerResponse
		if err := json.NewDecoder(peerBody(resp)).Decode(&ack); err != nil {
			w.noteError(err)
			return
		}
		w.mu.Lock()
		first := !w.registered
		w.registered = true
		w.lastErr = ""
		w.peers = ack.Peers
		w.mu.Unlock()
		if first {
			slog.Info("fabric: registered",
				"coordinator", w.coord, "peers", len(ack.Peers))
			if ack.Version != w.s.version {
				slog.Warn("fabric: version mismatch",
					"coordinator", w.coord, "coordinator_version", ack.Version, "worker_version", w.s.version)
			}
		}
	case http.StatusNotFound:
		// Evicted or coordinator restarted: re-register next tick.
		_, _ = io.Copy(io.Discard, resp.Body)
		w.mu.Lock()
		w.registered = false
		w.mu.Unlock()
	default:
		_, _ = io.Copy(io.Discard, resp.Body)
		w.noteError(fmt.Errorf("announce status %d", resp.StatusCode))
	}
}

func (w *worker) noteError(err error) {
	w.mu.Lock()
	w.lastErr = err.Error()
	w.mu.Unlock()
}

func (w *worker) peerList() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, len(w.peers))
	copy(out, w.peers)
	return out
}

// probePeers is the worker's Remote hook body: ask every known peer
// whether it already holds the result for rj's content hash. The first
// hit is promoted into the local cache (both tiers) and served; a
// fleet-wide miss declines so the harness simulates from scratch. Any
// peer failure is counted and skipped — a flaky peer can only cost a
// probe round trip, never correctness.
func (w *worker) probePeers(ctx context.Context, spec JobSpec, rj *ResolvedJob) (*core.Result, bool, error) {
	hexHash := rj.HashHex()
	for _, peer := range w.peerList() {
		start := time.Now()
		res, outcome := w.probeOne(ctx, peer, hexHash)
		if w.s.tel != nil {
			w.s.tel.peerProbe.With(peer).Observe(time.Since(start).Seconds())
		}
		w.s.span(telemetry.TraceIDFrom(ctx), "probe", start,
			map[string]string{"peer": peer, "outcome": outcome.String()})
		w.count(peer, outcome)
		if outcome == probeHit {
			_ = w.s.cache.Put(rj.Hash(), spec, res)
			return res, true, nil
		}
		if ctx.Err() != nil {
			return nil, true, ctx.Err()
		}
	}
	return nil, false, nil
}

type probeOutcome int

const (
	probeHit probeOutcome = iota
	probeMiss
	probeError
)

func (o probeOutcome) String() string {
	switch o {
	case probeHit:
		return "hit"
	case probeMiss:
		return "miss"
	}
	return "error"
}

func (w *worker) probeOne(ctx context.Context, peer, hexHash string) (*core.Result, probeOutcome) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/fabric/probe/"+hexHash, nil)
	if err != nil {
		return nil, probeError
	}
	if id := telemetry.TraceIDFrom(ctx); id != "" {
		req.Header.Set(telemetry.TraceIDHeader, id)
	}
	resp, err := fabricHTTP.Do(req)
	if err != nil {
		return nil, probeError
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, probeMiss
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, probeError
	}
	var env envelope
	if err := json.NewDecoder(peerBody(resp)).Decode(&env); err != nil || env.Result == nil || env.Hash != hexHash {
		return nil, probeError
	}
	return env.Result, probeHit
}

func (w *worker) count(peer string, outcome probeOutcome) {
	w.mu.Lock()
	st, ok := w.stats[peer]
	if !ok {
		st = &peerStats{}
		w.stats[peer] = st
	}
	switch outcome {
	case probeHit:
		st.Hits++
	case probeMiss:
		st.Misses++
	case probeError:
		st.Errors++
	}
	w.mu.Unlock()
}

// fetchSnapshot pulls a warmed checkpoint from a peer. Misses and
// errors are indistinguishable to the caller by design: either way the
// next peer is tried and the warm-up re-runs on a fleet-wide miss.
// ctx carries the requesting job's trace ID; the fetch itself still
// bounds its own deadline.
func (w *worker) fetchSnapshot(ctx context.Context, peer, key string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/fabric/snap/"+key, nil)
	if err != nil {
		return nil, false
	}
	if id := telemetry.TraceIDFrom(ctx); id != "" {
		req.Header.Set(telemetry.TraceIDHeader, id)
	}
	resp, err := fabricHTTP.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	data, err := io.ReadAll(peerBody(resp))
	if err != nil || len(data) == 0 || len(data) == maxPeerBodyBytes {
		return nil, false
	}
	return data, true
}

// health is the worker's /healthz fabric section.
func (w *worker) health() map[string]any {
	w.mu.Lock()
	defer w.mu.Unlock()
	probes := make(map[string]peerStats, len(w.stats))
	for peer, st := range w.stats {
		probes[peer] = *st
	}
	peers := make([]string, len(w.peers))
	copy(peers, w.peers)
	sort.Strings(peers)
	return map[string]any{
		"role":        "worker",
		"coordinator": w.coord,
		"advertise":   w.self,
		"registered":  w.registered,
		"last_error":  w.lastErr,
		"peers":       peers,
		"probes":      probes,
	}
}
