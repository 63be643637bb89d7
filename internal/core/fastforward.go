package core

import (
	"math"

	"clustersmt/internal/parallel"
	"clustersmt/internal/prog"
	"clustersmt/internal/stats"
)

// This file implements cluster sleep. The paper's clusters share nothing
// (§3.3), so quiescence is a property of one cluster: when a cycle
// leaves a cluster without progress and a dry run of its next cycle
// proves it frozen except for the passage of time — every state
// transition left is pinned to a known future cycle (an issued
// instruction completing, a dispatched one clearing the front-end
// delay, a functional unit freeing) or to another cluster releasing a
// lock or barrier — the cluster goes to sleep. step() then skips it,
// adding its constant slot row to the machine-wide tally at its
// position in the cluster order. When it wakes, the slept cycles are
// charged to its own counters in bulk, exactly as stepping would have:
// same slot votes per cycle (provably constant while quiescent), same
// per-cycle counter mutations. The whole-machine fast-forward is the
// case in which every cluster is asleep: jump() moves the clock to the
// earliest wake-up.
//
// The contract is bit-identity, not approximation: the differential
// tests run Simulator.Run against the never-sleeping loop of
// oracle_test.go and assert reflect.DeepEqual on the full Result.

// noEvent means a cluster is quiescent with no self-scheduled event —
// it can only be woken by another cluster (e.g. a barrier release).
const noEvent = int64(math.MaxInt64)

// fetchStall classifies what a sleeping cluster's front end does every
// slept cycle, so wake can replay its counters in bulk.
type fetchStall uint8

const (
	stallNone   fetchStall = iota // no fetchable thread at all
	stallWindow                   // pick bounces off a full window
	stallRename                   // every fetchable thread lacks a rename reg
)

// clusterSleep is one cluster's sleep state, held in Simulator.sleep at
// the cluster's gid. None of it is on the snapshot wire: whatever looks
// at a cluster from outside the cycle loop wakes it first (wakeAll).
type clusterSleep struct {
	asleep bool
	// syncWait marks a sleeper with a thread parked on a lock or a
	// barrier: the one kind another cluster can wake, by a release that
	// moves Simulator.releases past epoch.
	syncWait bool
	busy     bool // the commit half of this cycle's progress signal
	stall    fetchStall
	// Failed probes back off exponentially: some idle states are
	// persistently non-quiescent (an MSHR-blocked load).
	failStreak uint8
	probeAt    int64

	from   int64 // first cycle not yet charged to the cluster's own counters
	wakeAt int64 // the cluster's earliest self-scheduled event
	epoch  uint64

	// What every slept cycle records: the hazard votes, their slot row
	// and its non-zero categories (all the machine tally needs: adding
	// +0.0 to a non-negative accumulator is exact), the spinners' polls.
	votes    stats.Votes
	row      [stats.NumCategories]float64
	cats     [stats.NumCategories]stats.Category
	ncat     int
	spinners []*threadCtx
}

// addTo adds one slept cycle's row to a tally.
func (sl *clusterSleep) addTo(t *stats.Slots) {
	for _, c := range sl.cats[:sl.ncat] {
		t.Counts[c] += sl.row[c]
	}
}

// clusterQuiescent performs a non-mutating replay of what step() would
// do on cl at cycle now. It returns quiet=false if any stage would make
// progress or touch per-thread state the bulk path cannot replay. When
// quiet, it returns the cluster's earliest event cycle and has filled
// the (reset) sl with the hazard tally every slept cycle would record
// and the replay work: lock spinners' failed polls, the fetch-stall
// kind, whether a release must wake the cluster.
//
// The stages are checked cheapest-first — per-thread scans before the
// issue-stage drain — so a busy cluster pays little for a failed
// quiescence probe.
func (s *Simulator) clusterQuiescent(cl *cluster, now int64, sl *clusterSleep) (quiet bool, next int64) {
	votes := &sl.votes
	next = noEvent
	event := func(at int64) {
		if at < next {
			next = at
		}
	}

	// Commit stage: any thread with a completed instruction at its
	// in-order commit point retires it; an issued front bounds the skip.
	for _, t := range cl.threads {
		if t.frontEvent <= now {
			return false, 0
		}
		event(t.frontEvent)
	}

	// Fetch stage: blocked threads may resume; runnable threads fetch.
	winFull := len(cl.free) == 0
	stall := stallNone
	for _, t := range cl.threads {
		switch t.block {
		case blockBranch:
			// Resolution is the branch's completion, which bounds the
			// skip once the branch has issued (its issue is an issue-stage
			// event).
			if cl.refDone(t.pendingBranch, now) {
				return false, 0
			}
			if br := cl.resolve(t.pendingBranch); br.state == stateIssued {
				event(br.completeAt)
			}
		case blockLock:
			// Dry-run the unblock poll: TryLock would succeed (and
			// mutate) iff the lock is free. Only an Unlock fetched on
			// another cluster releases a held lock, and fetchFrom
			// advances s.releases when it does.
			if t.lockGranted || t.sync.LockOwner(t.fn.Next().Instr.Imm) == parallel.NoOwner {
				return false, 0
			}
			sl.spinners = append(sl.spinners, t)
			sl.syncWait = true
		case blockBarrier:
			// Same reasoning, for the Arrive that trips the barrier.
			if t.sync.Released(t.fn.Next().Instr.Imm, t.barTarget) {
				return false, 0
			}
			sl.syncWait = true
		case blockMigrate:
			// Post-migration refill stall: lifts at a known cycle.
			if now >= t.migrateReady {
				return false, 0
			}
			event(t.migrateReady)
		case blockNone:
			if t.migrateTo != nil {
				// Draining for a migration: fetch skips it; its in-flight
				// completions are window events. Once drained the move
				// itself (between cycles) is progress.
				if t.fifo.len() == 0 {
					return false, 0
				}
				continue
			}
			if t.fn.Halted {
				continue // draining or done; never fetches again
			}
			if winFull {
				// The fetch attempt hits the capacity check before
				// anything thread-specific and charges only uniform
				// per-cycle stall counters, replayed in bulk.
				stall = stallWindow
				continue
			}
			// With window room the pick reaches the thread's next
			// instruction. Sync ops mutate or transition; an
			// instruction that clears the rename check would dispatch.
			// Only an every-fetchable-thread rename stall is frozen. A
			// PC outside the program is progress too: fetch reports it.
			d := t.fn.Next()
			if d == nil || d.Flags&prog.IsSync != 0 {
				return false, 0
			}
			needInt, needFP := d.Flags&prog.WritesRD != 0, d.Flags&prog.WritesFD != 0
			if (needInt && cl.renameIntFree == 0) || (needFP && cl.renameFPFree == 0) {
				stall = stallRename
				continue
			}
			return false, 0
		}
	}
	if sl.stall = stall; stall == stallRename {
		// The one picked thread votes Other each cycle (§4.1 rename
		// stalls), exactly as fetchFrom would.
		votes[stats.Other]++
	}

	// Issue stage: replicate the issue path's vote logic without
	// issuing. Nothing may be issuable — an issuable entry is progress,
	// and for loads even the attempt mutates memory-system counters.
	if !quiescentIssue(cl, now, votes, event) {
		return false, 0
	}

	cl.threadVotes(votes)
	return true, next
}

// quiescentIssue dry-runs the issue stage (cluster.issue). The event
// drain is idempotent at a fixed cycle, so running it here leaves a
// subsequent step (on probe failure) unperturbed. After the drain, the
// ready list and waiting tallies are exactly what a window scan would
// derive: ready entries are checked individually (their FU /
// pending-store verdicts can change without a wheel event, so a busy
// unit's freeing and a forwarding store's completion bound the skip),
// waiting entries vote in bulk, and the pending ring's head plus the
// wheel's earliest event bound every front-end transition and every
// waiting entry's next class change — so no transition falls strictly
// inside a sleep, which is what keeps the per-cycle votes constant
// while quiescent. The other completions that matter — the fifo
// fronts' and a mispredicted branch's — bound it in clusterQuiescent.
func quiescentIssue(cl *cluster, now int64, votes *stats.Votes, event func(int64)) bool {
	cl.drainEvents(now)
	for _, h := range cl.ready {
		e := &cl.pool[h]
		class := e.fuCl
		if cl.freeUnit(class, now) < 0 {
			votes[stats.Structural]++
			event(cl.nextUnitFree(class)) // all busy, so the min is > now
			continue
		}
		if e.isLoad {
			if st := cl.forwardingStore(e); st != nil && !st.done(now) {
				// The store's completion bounds the skip once it has
				// issued (its issue is an issue-stage event).
				votes[stats.Data]++
				if st.state == stateIssued {
					event(st.completeAt)
				}
				continue
			}
		}
		return false
	}
	votes[stats.Memory] += float64(cl.waitMemN)
	votes[stats.Data] += float64(cl.waitDataN)
	if cl.pending.len() > 0 {
		event(cl.pool[cl.pending.front()].eligibleAt)
	}
	event(cl.wheel.min())
	return true
}

// sleepIdle runs between cycles: every cluster the last cycle left
// without progress is probed for the cycle about to run and, when it is
// quiescent with its next event more than one cycle away, put to sleep.
func (s *Simulator) sleepIdle() {
	now := s.cycle
	for _, gid := range s.idle {
		sl := &s.sleep[gid]
		if now < sl.probeAt {
			continue
		}
		s.sleepStats.Probes++
		sl.votes.Reset()
		sl.spinners = sl.spinners[:0]
		sl.syncWait = false
		cl := s.clusters[gid]
		quiet, next := s.clusterQuiescent(cl, now, sl)
		if !quiet || next <= now+1 {
			s.sleepStats.ProbesFailed++
			if sl.failStreak < 6 {
				sl.failStreak++
			}
			sl.probeAt = now + 1<<sl.failStreak
			continue
		}
		sl.asleep, sl.failStreak = true, 0
		sl.from, sl.wakeAt, sl.epoch = now, next, s.releases
		sl.row = stats.CycleRow(cl.cfg.IssueWidth, 0, &sl.votes)
		sl.ncat = 0
		for c, v := range sl.row {
			if v != 0 {
				sl.cats[sl.ncat] = stats.Category(c)
				sl.ncat++
			}
		}
		s.nAsleep++
	}
	s.idle = s.idle[:0]
}

// wake ends cl's sleep at cycle now, charging the slept cycles
// [from, now) to its own counters exactly as stepping would have: its
// tally is a contiguous stream and takes the bulk path, the commit
// round-robin advanced every cycle, each spinner failed one poll per
// cycle, and a stalled front end picked one fetchable thread per cycle
// and bounced off the stall — one stall count, one pick rotation (a
// stalled cluster has instructions in flight, so the longest latency
// bounds the replay). commitDone says the cluster is woken from the
// issue/fetch phase: this cycle's commit phase has passed it, which for
// a sleeper was one more rotation.
func (s *Simulator) wake(cl *cluster, now int64, commitDone bool) {
	sl := &s.sleep[cl.gid]
	n := now - sl.from
	cl.slots.RecordIdleCycles(cl.cfg.IssueWidth, n, &sl.votes)
	cl.commitRR += int(n)
	if commitDone {
		cl.commitRR++
	}
	for _, t := range sl.spinners {
		t.sync.LockConflicts += uint64(n)
	}
	if sl.stall != stallNone {
		if sl.stall == stallWindow {
			cl.windowFullStalls += uint64(n)
		} else {
			cl.renameStalls += uint64(n)
		}
		for i := int64(0); i < n; i++ {
			cl.pickFetchThread()
		}
	}
	s.sleepStats.Slept += n
	sl.asleep, sl.busy = false, false
	s.nAsleep--
}

// wakeAll wakes every sleeper between cycles. Whatever looks at the
// clusters from outside the cycle loop calls it first: a RunTo pause
// (and hence Snapshot and Fork), result(), sample(), an allocation
// epoch.
func (s *Simulator) wakeAll() {
	for i, cl := range s.clusters {
		if s.sleep[i].asleep {
			s.wake(cl, s.cycle, false)
		}
	}
}

// jump is the whole-machine fast-forward: with every cluster asleep
// nothing happens before the earliest wake-up, so the clock moves there
// at once — clamped to the next allocation epoch and metrics frame,
// which must see the machine at exactly the cycle they would under
// stepping. The machine-wide tally still receives every skipped cycle's
// rows in cluster order; the clusters charge themselves when they wake.
// With no event before MaxCycles (deadlock) it goes straight there, so
// Run's safety net fires without grinding through billions of idle
// cycles (the error path discards all accounting). It reports whether
// the clock moved: a wake-up due now is step()'s to handle.
func (s *Simulator) jump() bool {
	next := noEvent
	for i := range s.sleep {
		next = min(next, s.sleep[i].wakeAt)
	}
	if s.alloc != nil {
		next = min(next, s.alloc.nextAt)
	}
	if next >= s.MaxCycles {
		s.cycle = s.MaxCycles
		for i := range s.sleep {
			s.sleep[i].from = s.MaxCycles // nothing to charge on a later wake
		}
		return true
	}
	if s.obs != nil {
		next = min(next, s.obs.nextAt)
	}
	n := next - s.cycle
	if n <= 0 {
		return false
	}
	for c := int64(0); c < n; c++ {
		for i := range s.sleep {
			s.sleep[i].addTo(&s.slots)
		}
	}
	s.slots.AdvanceCycles(n)
	// running is integer-valued and the accumulator stays far below
	// 2^53, so the bulk add equals n repeated additions exactly.
	s.runningAccum += float64(n) * float64(s.running)
	s.ffCycles += n
	s.cycle = next
	return true
}

// SleepStats counts what cluster sleep did in a run, exactly.
type SleepStats struct {
	ClusterCycles int64 // clusters × cycles
	Slept         int64 // cluster-cycles slept through rather than stepped
	Probes        int64 // quiescence probes
	ProbesFailed  int64 // probes that found progress, or an event next cycle
}

// SleepStats returns the run's sleep counters.
func (s *Simulator) SleepStats() SleepStats {
	st := s.sleepStats
	st.ClusterCycles = int64(len(s.clusters)) * s.cycle
	return st
}
