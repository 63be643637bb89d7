package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"clustersmt/internal/stats"
)

// This file implements the deterministic parallel execution mode: one
// goroutine per chip, stepping the machine in per-cycle lockstep.
//
// Soundness rests on the structure of one simulated cycle (see
// DESIGN.md §8). The coherence model resolves every cross-chip
// transaction instantly in simulator order, so the conservative
// lookahead horizon derived from the interconnect latencies
// (config.MemConfig.MinCrossChipLatency) collapses to a single cycle,
// and within the cycle the stages decompose:
//
//   - Phase A (parallel, per chip): commit + event drain. Commit never
//     reads the shared memory system — stores are deferred to per-
//     cluster queues — and all remaining commit/drain state is
//     cluster-local, so chips commute.
//   - Store drain (coordinator): the deferred stores execute in exact
//     global cluster order, which is precisely where the sequential
//     loop performs them (all commits precede all issues).
//   - Classification (coordinator): every ready load is probed against
//     its chip's L2 (non-mutating). If any load could miss past L2 —
//     i.e. reach the directory/interconnect, the only cross-chip state
//     — the whole issue/fetch phase falls back to the sequential
//     order for this cycle. Inclusion (L1⊆L2) plus the fact that no
//     concurrent-phase operation ever removes a line from an L2 make
//     the probe sound for the whole phase, not just the instant it
//     runs.
//   - Phase B (parallel when classified safe): issue + unblock + fetch
//     per chip, touching only chip-local memory state. The shared
//     synchronization controller is serialized by the turn protocol:
//     a cluster performing a sync operation first waits until every
//     lower-numbered cluster has finished its phase B, so lock grants
//     and barrier arrivals happen in exactly the sequential order.
//
// Machine-wide counters are sharded per chip and folded by the
// coordinator every cycle; the float issue-slot tally is replayed by
// the coordinator in cluster order from saved per-cluster votes, so
// even the non-associative float accounting is bit-identical.

// parPhase is the coordinator's instruction to the chip workers.
type parPhase uint8

const (
	parPhaseA    parPhase = iota // commit + event drain
	parPhaseB                    // issue + unblock + fetch
	parPhaseExit                 // shut down
)

// chipShard collects one chip's contributions to the machine-wide
// integer counters during a parallel phase; the coordinator folds the
// shards at the end of each cycle. The padding keeps adjacent chips'
// shards off each other's cache lines.
type chipShard struct {
	committed uint64
	forwarded uint64
	running   int64
	finished  int64
	_         [4]uint64
}

// parRunner owns the persistent chip workers and the rendezvous state.
// The coordinator (the goroutine inside Run, which doubles as chip 0's
// worker) publishes a phase by writing the plain fields and then
// release-bumping gen; workers acquire-spin on gen, run the phase, and
// release-store their completion into chipDone.
type parRunner struct {
	s *Simulator

	gen      atomic.Int64   // phase generation, bumped by the coordinator
	chipDone []atomic.Int64 // [chip] last generation the worker completed

	// clusterGen[gid] is release-stored by a cluster's worker when the
	// cluster finishes its parallel phase B; ensureTurn acquire-spins
	// on it to serialize sync operations in global cluster order.
	clusterGen []atomic.Int64

	// Written by the coordinator before each gen bump; read by workers
	// after the acquire (release/acquire on gen orders them).
	phase  parPhase
	parB   bool  // phase B runs on the workers (vs coordinator fallback)
	curGen int64 // generation of the current phase

	shards  []chipShard   // [chip]
	votes   []stats.Votes // [gid] phase-B hazard votes
	issued  []int         // [gid] phase-B issue counts
	activeA []bool        // [chip] commit progress
	activeB []bool        // [gid] issue/unblock/fetch progress
	hasTurn []bool        // [chip] worker already holds the sync turn
}

func (r *parRunner) nchips() int { return len(r.s.chips) }

// release publishes the next phase to the workers and returns its
// generation.
func (r *parRunner) release(ph parPhase) int64 {
	r.phase = ph
	r.curGen = r.gen.Load() + 1
	r.gen.Store(r.curGen)
	return r.curGen
}

// join blocks until every worker has completed generation g. The
// escalating backoff matters on oversubscribed hosts (GOMAXPROCS
// above the physical core count): without the sleep rung a starved
// worker and a spinning coordinator can trade whole scheduler
// quanta per rendezvous.
func (r *parRunner) join(g int64) {
	for chip := 1; chip < len(r.chipDone); chip++ {
		for spins := 0; r.chipDone[chip].Load() < g; spins++ {
			if spins > 64 {
				runtime.Gosched()
			}
			if spins > 1<<10 {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}
}

// worker is the persistent goroutine for one chip (chips 1..n-1; the
// coordinator runs chip 0 inline). It spins on gen between phases —
// with escalating politeness, since the coordinator may be inside a
// long machine jump — and exits on parPhaseExit.
func (r *parRunner) worker(chip int) {
	last := int64(0)
	for {
		g := r.gen.Load()
		for spins := 0; g <= last; spins++ {
			if spins > 64 {
				runtime.Gosched()
			}
			if spins > 1<<10 {
				time.Sleep(10 * time.Microsecond)
			}
			g = r.gen.Load()
		}
		last = g
		switch r.phase {
		case parPhaseA:
			r.runPhaseA(chip)
		case parPhaseB:
			r.runPhaseB(chip)
		case parPhaseExit:
			r.chipDone[chip].Store(g)
			return
		}
		r.chipDone[chip].Store(g)
	}
}

// runPhaseA commits all of the chip's clusters (in chip-local order,
// which is their relative sequential order) with memory-system stores
// deferred to the per-cluster queues, then drains each cluster's
// wakeup events so the ready lists are final before classification.
func (r *parRunner) runPhaseA(chip int) {
	s := r.s
	now := s.cycle
	active := false
	for _, cl := range s.chips[chip] {
		if cl.commit(s, now) {
			active = true
		}
	}
	for _, cl := range s.chips[chip] {
		cl.drainEvents(now)
	}
	r.activeA[chip] = active
}

// runPhaseB issues, unblocks and fetches for all of the chip's
// clusters in chip-local order, recording per-cluster results for the
// coordinator's ordered replay. When the phase runs on the workers
// (parB), sync operations go through the turn protocol and each
// cluster's completion is published for it.
func (r *parRunner) runPhaseB(chip int) {
	s := r.s
	now := s.cycle
	r.hasTurn[chip] = chip == 0 // chip 0 leads the global cluster order
	for _, cl := range s.chips[chip] {
		gid := cl.gid
		votes := &r.votes[gid]
		votes.Reset()
		issued := cl.issue(s, now, votes)
		active := issued > 0
		if r.parB && cl.hasSyncBlocked() {
			// unblock polls the shared sync controller for lock/barrier
			// waiters; take the turn first so grants keep sequential
			// order.
			s.ensureTurn(cl)
		}
		if cl.unblock(s, now) {
			active = true
		}
		if cl.fetch(s, now, votes) {
			active = true
		}
		cl.threadVotes(votes)
		cl.slots.RecordCycle(cl.cfg.IssueWidth, issued, votes)
		r.issued[gid] = issued
		r.activeB[gid] = active
		if r.parB {
			r.clusterGen[gid].Store(r.curGen)
		}
	}
}

// hasSyncBlocked reports whether any thread is parked on a lock or
// barrier (the unblock cases that touch the shared sync controller).
func (c *cluster) hasSyncBlocked() bool {
	for _, t := range c.threads {
		if t.block == blockLock || t.block == blockBarrier {
			return true
		}
	}
	return false
}

// ensureTurn serializes access to cross-chip shared state (the sync
// controller, swap's functional read-modify-write) during a parallel
// phase B: it blocks until every lower-numbered cluster has finished
// its phase B. Cluster order equals sequential order, the lowest
// cluster never waits, and a chip processes its own clusters in order,
// so there is no cyclic wait. No-op outside parallel phase B.
func (s *Simulator) ensureTurn(c *cluster) {
	r := s.par
	if r == nil || !r.parB || r.hasTurn[c.chip] {
		return
	}
	for gid := 0; gid < c.gid; gid++ {
		for spins := 0; r.clusterGen[gid].Load() < r.curGen; spins++ {
			if spins > 64 {
				runtime.Gosched()
			}
			if spins > 1<<10 {
				time.Sleep(10 * time.Microsecond)
			}
		}
	}
	r.hasTurn[c.chip] = true
}

// anyDirLoad reports whether any ready load anywhere in the machine
// could miss past its chip's L2 this cycle. Runs on the coordinator
// after the store drain, against final ready lists; L2 probes are
// non-mutating. forwardingStore is consulted first: a load with a
// live forwarding candidate either forwards or waits, and never
// touches the memory system.
func (s *Simulator) anyDirLoad() bool {
	for _, cl := range s.clusters {
		for _, h := range cl.ready {
			e := &cl.pool[h]
			if !e.isLoad || cl.forwardingStore(e) != nil {
				continue
			}
			if s.msys.LoadMayFetch(cl.chip, e.d.Addr+s.threads[e.tid].memBase) {
				return true
			}
		}
	}
	return false
}

// stepParallel advances the machine one cycle using the chip workers.
// It is the parallel counterpart of step and must leave every counter
// bit-identical (guarded by TestParallelDifferential). Every cluster
// steps: sleepers (a machine jump just landed, or the whole machine did
// not follow them) are woken first, on the coordinator, so the workers
// share no sleep state.
func (s *Simulator) stepParallel() {
	r := s.par
	now := s.cycle
	s.wakeAll()

	// Phase A: parallel commit + event drain.
	g := r.release(parPhaseA)
	r.runPhaseA(0)
	r.join(g)

	// Deferred stores, in exact global cluster order — the point in the
	// sequential cycle where commit performed them.
	for _, cl := range s.clusters {
		for _, addr := range cl.storeQ {
			s.msys.Store(now, cl.chip, addr)
		}
		cl.storeQ = cl.storeQ[:0]
	}

	// Drained migrations move between commit and issue, exactly where
	// the sequential step performs them; the workers are parked, so the
	// coordinator re-homes threads with no cluster stage in flight.
	if len(s.migrating) > 0 {
		s.completeMigrations(now)
	}

	// Phase B: parallel when no ready load can reach the directory,
	// else the coordinator runs the chips in order (same code path,
	// same sharded counters, no turn protocol needed).
	if r.nchips() > 1 && !s.anyDirLoad() {
		r.parB = true
		s.parBCycles++
		s.msys.SetNoDir(true)
		g = r.release(parPhaseB)
		r.runPhaseB(0)
		r.join(g)
		s.msys.SetNoDir(false)
	} else {
		r.parB = false
		for chip := range s.chips {
			r.runPhaseB(chip)
		}
	}

	// Ordered replay of the machine-wide float slot accounting, then
	// integer shard folds. Float addition is not associative, so the
	// machine tally must see the per-cluster calls in sequential order;
	// the integer folds are exact in any order.
	s.idle = s.idle[:0]
	for _, cl := range s.clusters {
		gid := cl.gid
		s.slots.RecordCycle(cl.cfg.IssueWidth, r.issued[gid], &r.votes[gid])
		if sl := &s.sleep[gid]; r.activeA[cl.chip] || r.activeB[gid] {
			sl.failStreak, sl.probeAt = 0, 0
		} else {
			s.idle = append(s.idle, int32(gid))
		}
	}
	for chip := range r.shards {
		sh := &r.shards[chip]
		s.committed += sh.committed
		s.forwardedLoads += sh.forwarded
		s.running += int(sh.running)
		s.finished += int(sh.finished)
		*sh = chipShard{}
	}
	s.msys.FoldShards()

	s.slots.AdvanceCycle()
	s.runningAccum += float64(s.running)
	s.cycle++
}

// ---- counter shims (cluster stages run on workers in parallel mode) ----

func (s *Simulator) noteCommitted(chip int) {
	if s.par != nil {
		s.par.shards[chip].committed++
		return
	}
	s.committed++
}

func (s *Simulator) noteForwarded(chip int) {
	if s.par != nil {
		s.par.shards[chip].forwarded++
		return
	}
	s.forwardedLoads++
}

// noteFinished records a thread draining after halt: it leaves the
// running count and joins the finished count.
func (s *Simulator) noteFinished(chip int) {
	if s.par != nil {
		s.par.shards[chip].running--
		s.par.shards[chip].finished++
		return
	}
	s.running--
	s.finished++
}

func (s *Simulator) addRunning(chip, d int) {
	if s.par != nil {
		s.par.shards[chip].running += int64(d)
		return
	}
	s.running += d
}

// ---- lifecycle ----

// startParallel validates the configuration and spawns the chip
// workers. Parallel execution is incompatible with instruction tracing
// (the trace writer is strictly sequential).
func (s *Simulator) startParallel() error {
	if s.tr != nil {
		return fmt.Errorf("core: %s: parallel execution is incompatible with instruction tracing", s.Machine.Name)
	}
	n := len(s.chips)
	r := &parRunner{
		s:          s,
		chipDone:   make([]atomic.Int64, n),
		clusterGen: make([]atomic.Int64, len(s.clusters)),
		shards:     make([]chipShard, n),
		votes:      make([]stats.Votes, len(s.clusters)),
		issued:     make([]int, len(s.clusters)),
		activeA:    make([]bool, n),
		activeB:    make([]bool, len(s.clusters)),
		hasTurn:    make([]bool, n),
	}
	s.par = r
	s.msys.EnableStatShards()
	for chip := 1; chip < n; chip++ {
		go r.worker(chip)
	}
	return nil
}

// stopParallel shuts the workers down and returns the simulator to
// sequential code paths (post-run inspection).
func (s *Simulator) stopParallel() {
	r := s.par
	g := r.release(parPhaseExit)
	r.join(g)
	s.par = nil
}
