package core

import (
	"fmt"
	"slices"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/prog"
	"clustersmt/internal/stats"
)

// This file holds the definitions the production core is tested
// against. The binary carries one cycle loop (Simulator.run, in which
// clusters that cannot make progress sleep), one issue stage
// (cluster.issue, wakeup.go) and one forwarding lookup
// (cluster.forwardingStore); what each of them must equal lives here,
// reachable from tests only:
//
//   - refLoop is the plain cycle-by-cycle loop in which every cluster
//     runs every stage every cycle (stepRef) — the never-sleeping
//     definition, with the allocation-epoch and sampler calls in the
//     same places Simulator.run makes them;
//   - issueScan is the §4.1 issue stage as a per-cycle scan of the
//     whole window, the definition cluster.issue reproduces from its
//     ready list and waiting tallies;
//   - issueAudit checks, at a cycle boundary, that those ready lists
//     and tallies are exactly what a scan would derive, and that every
//     load's fetch-bound forwarding store is the one a FIFO scan
//     (forwardingStoreScan) finds.

// refLoop drives a simulator with the reference loop.
type refLoop struct {
	// scan issues through issueScan instead of cluster.issue.
	scan bool
	// ff probes every cluster with the production clusterQuiescent after
	// every idle cycle (no back-off) and takes the production machine
	// jump when all are quiet — the dry run over a machine whose issue
	// stage is the scan. Nothing sleeps through a stepped cycle.
	ff bool
	// audit, when non-nil, checks the issue state before every cycle.
	audit *issueAudit
	// sleep, when non-nil, makes this Simulator.run itself — sleepIdle,
	// then a machine jump or the production step — with every sleeper
	// audited before every cycle. It is how a test sees inside the
	// production loop, not a definition of anything.
	sleep *sleepAudit
}

// run drives s to completion and returns its Result.
func (l refLoop) run(s *Simulator) (*Result, error) { return l.runTo(s, -1) }

// runTo mirrors Simulator.run without the interrupt poll: target < 0
// runs to completion, otherwise it pauses once s.cycle >= target and
// returns (nil, nil) with the simulator resumable by either loop.
func (l refLoop) runTo(s *Simulator, target int64) (*Result, error) {
	if s.cycle != 0 && !s.resumable {
		return nil, fmt.Errorf("core: simulator already run")
	}
	s.resumable = false
	if s.tr != nil {
		defer s.tr.flush()
	}
	idle := false
	for !s.done() {
		if target >= 0 && s.cycle >= target {
			s.wakeAll()
			s.resumable = true
			return nil, nil
		}
		if s.cycle >= s.MaxCycles {
			return nil, fmt.Errorf("core: %s: exceeded %d cycles (committed %d instrs); livelock?",
				s.Machine.Name, s.MaxCycles, s.committed)
		}
		if s.alloc != nil && s.cycle >= s.alloc.nextAt {
			s.allocEpoch()
		}
		if l.ff && idle && l.jump(s) {
			idle = false
			continue
		}
		if l.audit != nil {
			if err := l.audit.check(s); err != nil {
				return nil, err
			}
		}
		switch {
		case l.sleep != nil:
			s.sleepIdle()
			if err := l.sleep.check(s); err != nil {
				return nil, err
			}
			if s.nAsleep < len(s.clusters) || !s.jump() {
				s.step()
			}
		default:
			idle = !stepRef(s, l.scan)
		}
		if s.obs != nil && s.cycle >= s.obs.nextAt {
			s.sample()
		}
	}
	if s.obs != nil && s.cycle > s.obs.prevCycle {
		s.sample()
	}
	return s.result(), nil
}

// jump tries the whole-machine fast-forward at the current cycle: every
// cluster is probed, and if all went to sleep the clock jumps. Either
// way every cluster is awake again when it returns.
func (l refLoop) jump(s *Simulator) bool {
	s.idle = s.idle[:0]
	for i := range s.clusters {
		s.sleep[i].probeAt = 0
		s.idle = append(s.idle, int32(i))
	}
	s.sleepIdle()
	jumped := s.nAsleep == len(s.clusters) && s.jump()
	s.wakeAll()
	return jumped
}

// stepRef is one machine cycle by definition: every cluster commits,
// then every cluster issues (through issueScan when scan is set),
// unblocks, fetches and accounts its slots. Simulator.step is this plus
// the handling of sleepers. It reports whether anything made progress.
func stepRef(s *Simulator, scan bool) bool {
	now := s.cycle
	active := false
	for _, cl := range s.clusters {
		if cl.commit(s, now) {
			active = true
		}
	}
	if len(s.migrating) > 0 && s.completeMigrations(now) {
		active = true
	}
	var votes stats.Votes
	for _, cl := range s.clusters {
		votes.Reset()
		var issued int
		if scan {
			issued = issueScan(cl, s, now, &votes)
		} else {
			issued = cl.issue(s, now, &votes)
		}
		if issued > 0 {
			active = true
		}
		if cl.unblock(s, now) {
			active = true
		}
		if cl.fetch(s, now, &votes) {
			active = true
		}
		cl.threadVotes(&votes)
		s.slots.RecordCycle(cl.cfg.IssueWidth, issued, &votes)
		cl.slots.RecordCycle(cl.cfg.IssueWidth, issued, &votes)
	}
	s.slots.AdvanceCycle()
	s.runningAccum += float64(s.running)
	s.cycle++
	return active
}

// issueScan is the issue stage by definition: select up to IssueWidth
// ready instructions, oldest first, by re-scanning every window entry,
// and start them on functional units; unissuable instructions vote for
// their hazard class (§4.1). It reads neither the ready list nor the
// waiting tallies. Fetch and tryIssue feed the production stage's
// fixed-capacity wheel and pending ring regardless, so the scan drains
// them (their contents never influence it) and strikes what it issued
// from the ready list, which keeps the structures bounded and lets the
// production quiescence probe examine a scan-issued machine.
func issueScan(c *cluster, s *Simulator, now int64, votes *stats.Votes) int {
	c.drainEvents(now)
	issued := 0
	for _, h := range c.window {
		if issued >= c.cfg.IssueWidth {
			break
		}
		e := &c.pool[h]
		if e.state != stateDispatched || now < e.eligibleAt {
			continue
		}
		ready, memWait := c.sourcesReady(e, now)
		if !ready {
			if memWait {
				votes[stats.Memory]++
			} else {
				votes[stats.Data]++
			}
			continue
		}
		if c.tryIssue(s, h, now, votes) {
			e.queued = qNone
			issued++
		}
	}
	kept := c.ready[:0]
	for _, h := range c.ready {
		if c.pool[h].state == stateDispatched {
			kept = append(kept, h)
		}
	}
	c.ready = kept
	return issued
}

// forwardingStoreScan is the definition behind cluster.forwardingStore:
// the youngest older same-address store still in the thread's fifo.
func forwardingStoreScan(c *cluster, t *threadCtx, load *entry) *entry {
	for i := t.fifo.len() - 1; i >= 0; i-- {
		e := &c.pool[t.fifo.at(i)]
		if e.seq >= load.seq {
			continue
		}
		if e.isStore && e.d.Addr == load.d.Addr {
			return e
		}
	}
	return nil
}

// sleepAudit checks, before every cycle of the production loop, that
// every sleeper is where its sleep record says: a dry scan of the
// cluster at this cycle (the probe that put it to sleep, run again)
// finds no progress, the same next event, and the votes, fetch-stall
// kind and lock spinners recorded. The one exception is the sleeper a
// release has reached since it last looked: its scan may find progress,
// and step must then wake it this very cycle.
type sleepAudit struct {
	sleepers int64 // sleeper-cycles audited
	released int64 // of them, found unblocked by a release
	last     int   // sleepers at the latest check
	scratch  clusterSleep
}

func (a *sleepAudit) check(s *Simulator) error {
	now := s.cycle
	a.last = 0
	for i, cl := range s.clusters {
		sl := &s.sleep[i]
		if !sl.asleep || now >= sl.wakeAt {
			continue
		}
		a.sleepers++
		a.last++
		sc := &a.scratch
		*sc = clusterSleep{spinners: sc.spinners[:0]}
		quiet, next := s.clusterQuiescent(cl, now, sc)
		switch {
		case !quiet && sl.syncWait && sl.epoch != s.releases:
			a.released++
		case !quiet:
			return fmt.Errorf("cycle %d chip %d cluster %d: asleep since %d until %d, but a dry scan makes progress", now, cl.chip, cl.idx, sl.from, sl.wakeAt)
		case next != sl.wakeAt || sc.votes != sl.votes || sc.stall != sl.stall || sc.syncWait != sl.syncWait || !slices.Equal(sc.spinners, sl.spinners):
			return fmt.Errorf("cycle %d chip %d cluster %d: asleep with wakeAt %d votes %v stall %d spinners %d, dry scan gives next %d votes %v stall %d spinners %d",
				now, cl.chip, cl.idx, sl.wakeAt, sl.votes, sl.stall, len(sl.spinners), next, sc.votes, sc.stall, len(sc.spinners))
		}
	}
	return nil
}

// issueAudit tallies what its checks saw, so a test can tell an audit
// that passed from one that never met a waiting entry or a forwarding
// load.
type issueAudit struct {
	ready, waiting, forwarding int
	scratch                    []handle
}

// check compares every cluster's issue-stage bookkeeping against a
// window scan at the current cycle boundary. Draining is idempotent at
// a fixed cycle (the quiescence probe relies on it), so the audit
// leaves the following step unperturbed. After the drain: the eligible
// dispatched entries whose sources are ready must be the ready list,
// in seq order; every other eligible one must be flagged waiting with
// the hazard class sourcesReady gives it now, and the two tallies must
// count exactly those; entries still in decode/rename must be
// unclassified; and every uncommitted load's table-bound forwarding
// store must be the FIFO scan's.
func (a *issueAudit) check(s *Simulator) error {
	now := s.cycle
	for _, c := range s.clusters {
		c.drainEvents(now)
		fail := func(format string, args ...any) error {
			return fmt.Errorf("cycle %d chip %d cluster %d: %s", now, c.chip, c.idx, fmt.Sprintf(format, args...))
		}
		ready := a.scratch[:0]
		mem, data := 0, 0
		for _, h := range c.window {
			e := &c.pool[h]
			if e.isLoad && !e.committed {
				want := forwardingStoreScan(c, s.threads[e.tid], e)
				if got := c.forwardingStore(e); got != want {
					return fail("load seq %d: forwarding table %v, FIFO scan %v", e.seq, got, want)
				}
				if want != nil {
					a.forwarding++
				}
			}
			if e.state != stateDispatched {
				continue
			}
			if now < e.eligibleAt {
				if e.queued != qNone {
					return fail("seq %d classified %d inside the front-end delay", e.seq, e.queued)
				}
				continue
			}
			ok, memWait := c.sourcesReady(e, now)
			switch {
			case ok:
				ready = append(ready, h)
				if e.queued != qReady {
					return fail("seq %d has ready sources but queued=%d", e.seq, e.queued)
				}
			case e.queued != qWaiting || e.waitMem != memWait:
				return fail("seq %d waits (memory=%v) but queued=%d waitMem=%v", e.seq, memWait, e.queued, e.waitMem)
			case memWait:
				mem++
			default:
				data++
			}
		}
		a.scratch = ready
		if !slices.Equal(ready, c.ready) {
			return fail("ready list %v, window scan %v", c.ready, ready)
		}
		if mem != c.waitMemN || data != c.waitDataN {
			return fail("waiting tallies mem=%d data=%d, window scan mem=%d data=%d", c.waitMemN, c.waitDataN, mem, data)
		}
		a.ready += len(ready)
		a.waiting += mem + data
	}
	return nil
}

// runMode runs one (machine, program) pair under the given issue stage
// (eventIssue=false: the window scan) and cycle loop (ff=false: plain
// stepping), returning the result and the number of cycles the
// quiescence fast-forward skipped. Only eventIssue && ff is the
// production configuration; the other three go through refLoop, and
// the stepped production-issue leg audits the issue state every cycle.
func runMode(t *testing.T, m config.Machine, build func() *prog.Program, eventIssue, ff bool) (*Result, int64) {
	t.Helper()
	s, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	return runSim(t, s, eventIssue, ff), s.FastForwarded()
}

// runSim drives an already configured simulator in one of runMode's
// four modes.
func runSim(t *testing.T, s *Simulator, eventIssue, ff bool) *Result {
	t.Helper()
	var r *Result
	var err error
	switch {
	case eventIssue && ff:
		r, err = s.Run()
	case eventIssue:
		r, err = refLoop{audit: new(issueAudit)}.run(s)
	default:
		r, err = refLoop{scan: true, ff: ff}.run(s)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// advance is RunTo in one of runMode's four modes, without the audit
// (which allocates): the zero-allocation and pool-conservation tests
// pause and resume through it.
func advance(s *Simulator, target int64, eventIssue, ff bool) error {
	if eventIssue && ff {
		return s.RunTo(target)
	}
	_, err := refLoop{scan: !eventIssue, ff: ff}.runTo(s, target)
	return err
}
