package harness

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/prog"
)

// SnapshotStore persists warmed checkpoints across process lifetimes.
// Keys are lowercase hex SHA-256 strings (filesystem-safe); values are
// opaque core.Snapshot payloads. Both methods may be called from
// concurrent simulation goroutines. Load misses and failed saves are
// soft: the suite falls back to running the warm-up itself, so a store
// may drop writes (disk full, eviction) without affecting results.
// Load receives the warming run's context — federated stores use it
// for cancellation and to attribute the fetch to the run's trace.
type SnapshotStore interface {
	LoadSnapshot(ctx context.Context, key string) ([]byte, bool)
	SaveSnapshot(key string, data []byte)
}

// warmKey identifies one shareable warmed parent within a suite: the
// physical machine plus the program's warm-up prefix. Two workloads
// whose programs share a prefix key execute identically until a PC
// beyond the prefix is touched, so one parent serves them all.
type warmKey struct {
	machine [32]byte
	prefix  [32]byte
}

// warmParent is one warmed parent simulator, memoized per warmKey
// (Suite.warm): the first caller for a key runs the warm-up, later
// callers wait for it and then fork. A nil sim means the warm-up is
// unusable for this key (the run left the prefix before WarmupCycles)
// and every caller simulates from scratch; an interrupted warm-up is
// not memoized at all, so surviving waiters retry.
type warmParent struct {
	// mu serializes forks: ForkProgram mutates the parent's
	// copy-on-write bookkeeping (page table freeze, cache ownership
	// flags), so concurrent forks of one parent must not overlap.
	// Forked children are independent afterwards and run concurrently.
	mu  sync.Mutex
	sim *core.Simulator
}

// warmStart returns a simulator for p on m already advanced to
// WarmupCycles via a shared warmed parent, or (nil, nil) when the
// scratch path must be used: warm-up sharing disabled, the program
// declares no prefix, or the warm-up left the prefix before the
// checkpoint cycle. Results are bit-identical either way — a fork of a
// prefix-valid checkpoint replays exactly the cycles a scratch run
// would execute — so every failure mode here falls back silently.
func (s *Suite) warmStart(ctx context.Context, m config.Machine, p *prog.Program) (*core.Simulator, error) {
	w := s.WarmupCycles
	if w <= 0 || p.PrefixLen == 0 {
		return nil, nil
	}
	if s.MaxCycles > 0 && w >= s.MaxCycles {
		// The checkpoint cycle is past the run bound; warming up would
		// abort before pausing.
		return nil, nil
	}
	pk, ok := p.PrefixKey()
	if !ok {
		return nil, nil
	}
	k := warmKey{machine: m.Hash(), prefix: pk}

	wp, err := s.warm.do(ctx, k, func() (*warmParent, error) {
		sim := s.warmParent(ctx, m, p, w, k)
		if sim == nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return &warmParent{sim: sim}, nil
	})
	if err != nil {
		return nil, err
	}
	if wp.sim == nil {
		return nil, nil
	}
	wp.mu.Lock()
	child, err := wp.sim.ForkProgram(p)
	wp.mu.Unlock()
	if err != nil {
		// Should not happen for a key-matched parent; treated as a
		// soft miss rather than a run failure.
		return nil, nil
	}
	s.warmForks.Add(1)
	return child, nil
}

// warmParent builds (or restores) the warmed parent for key k: a
// simulator paused at WarmupCycles with its state still a pure function
// of the shared prefix. It returns nil when the warm-up is unusable
// (the program left the prefix early, or the run failed or was
// interrupted — the caller distinguishes via ctx.Err()).
func (s *Suite) warmParent(ctx context.Context, m config.Machine, p *prog.Program, w int64, k warmKey) *core.Simulator {
	key := s.snapshotKey(k, w)
	if s.Snapshots != nil {
		if data, ok := s.Snapshots.LoadSnapshot(ctx, key); ok {
			if sim, err := core.Restore(m, p, data); err == nil && sim.PrefixValid() {
				s.warmRestores.Add(1)
				return sim
			}
			// A stale, corrupt or mismatched payload is a miss; the
			// fresh warm-up below overwrites it.
		}
	}
	sim, err := core.New(m, p)
	if err != nil {
		return nil
	}
	// Children inherit the sampler through the fork, frames included, so
	// their rings match a scratch run's byte for byte. The heartbeat
	// callback is per-child and registered after the fork; the shared
	// warm-up phase itself emits no heartbeat.
	s.arm(ctx, sim, true)
	if err := sim.RunTo(w); err != nil {
		return nil
	}
	sim.Interrupt = nil
	if sim.Done() || !sim.PrefixValid() {
		// The program finished or fetched past its prefix before the
		// checkpoint cycle: the state now depends on this variant's
		// post-prefix code, so it cannot seed the others.
		return nil
	}
	if s.Snapshots != nil {
		if data, err := sim.Snapshot(); err == nil {
			s.Snapshots.SaveSnapshot(key, data)
		}
	}
	return sim
}

// snapshotKey derives the persistent-store key for a warmed parent. It
// covers everything that shapes the checkpoint bytes: machine, prefix,
// checkpoint cycle, snapshot format version, and the suite's metrics
// configuration (the sampler state is part of the snapshot, and a
// restored parent must carry the same sampler a fresh warm-up under
// this suite would).
func (s *Suite) snapshotKey(k warmKey, w int64) string {
	h := sha256.New()
	h.Write(k.machine[:])
	h.Write(k.prefix[:])
	metricsOn := s.MetricsInterval > 0 || s.OnFrame != nil
	fmt.Fprintf(h, "|w=%d|snapv=%d|obs=%t,%d,%d",
		w, core.SnapshotVersion, metricsOn, s.MetricsInterval, s.MetricsRingCap)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// WarmForks returns how many simulations were started by forking a
// warmed parent instead of from scratch, and how many parents were
// restored from the SnapshotStore rather than warmed by running —
// observability for tests and the /healthz endpoint.
func (s *Suite) WarmForks() (forks, restores int64) {
	return s.warmForks.Load(), s.warmRestores.Load()
}
