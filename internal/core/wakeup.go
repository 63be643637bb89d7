package core

import "clustersmt/internal/stats"

// This file implements the issue stage. It is dependence-driven: when
// an entry issues, its completion cycle is known (a load's too: the
// memory system answers at issue), so it walks its consumer list — the
// inverse of the entry.producers links — and each consumer folds that
// cycle into its own counters: how many producers have not issued
// (nwait, and nwaitLd for loads) and when the issued ones complete
// (readyAt, and memUntil for loads). Those four fields alone classify a
// consumer at any cycle, so a waiting entry's next transition — its
// memory→data flip or its ready cycle — is a known cycle, and the
// per-cluster wakeup wheel holds one event per waiting entry, at that
// cycle. Ready entries move into a seq-ordered ready list, so issue
// pops oldest-first from ready entries only instead of polling all
// WindowEntries every cycle. Entries still inside the decode/rename
// delay sit in a plain FIFO ring (eligibleAt is monotone in fetch
// order, so no wheel event is needed to order them), and unready
// entries sit in an unsorted waiting set whose memory/data hazard
// tallies are maintained incrementally.
//
// The stage is defined by the per-cycle window scan it stands for
// (§4.1): every eligible unissued entry, oldest first, either issues,
// or votes for its hazard class — the memory/data verdict of its
// unready producers, tryIssue's for the rest — until IssueWidth
// entries have issued. The contract is the same as cluster sleep's
// (fastforward.go): a Result bit-identical to that definition's, not
// an approximation. The scan itself lives in oracle_test.go; the
// differential tests run it against this stage on the full Result, and
// audit every cycle that the ready list, the waiting tallies and each
// waiting entry's counters and wheel event equal what a scan derives.
//
// An event is due no later than its entry can become ready, so it
// always names a waiting entry, by bare handle. Everything here is a
// fixed-capacity array of handles sized at construction — no maps, no
// pointers, nothing for the collector to barrier or mark.

// entry.queued states: membership in the cluster's issue bookkeeping.
const (
	qNone    uint8 = iota // not yet visible to the issue stage
	qWaiting              // eligible but blocked on an unready producer
	qReady                // sources resolved; an issue candidate
)

// wheelEvent schedules the waiting entry in slot h for re-evaluation
// at cycle.
type wheelEvent struct {
	cycle int64
	h     handle
}

// wheel is the wakeup wheel: a fixed-capacity binary min-heap of events
// keyed by cycle. Same-cycle events pop in no particular order, which
// is invisible: draining an event only reclassifies the entry it names
// from that entry's own counters (ready insertion is by seq), so
// same-cycle drains commute. Capacity is one event per pool slot.
type wheel struct {
	ev []wheelEvent
}

func newWheel(capacity int) wheel { return wheel{ev: make([]wheelEvent, 0, capacity)} }

// push schedules slot x for re-evaluation at the given cycle, reporting
// false when the wheel is full.
func (w *wheel) push(cycle int64, x handle) bool {
	h := w.ev
	i := len(h)
	if i == cap(h) {
		return false
	}
	h = h[:i+1]
	for i > 0 {
		p := (i - 1) / 2
		if h[p].cycle <= cycle {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = wheelEvent{cycle: cycle, h: x}
	w.ev = h
	return true
}

// min returns the earliest pending event cycle, or noEvent when the
// wheel is empty (a sleeper's next-event bound).
func (w *wheel) min() int64 {
	if len(w.ev) == 0 {
		return noEvent
	}
	return w.ev[0].cycle
}

// pop removes and returns the earliest event.
func (w *wheel) pop() wheelEvent {
	h := w.ev
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		small := 2*i + 1
		if small >= n {
			break
		}
		if r := small + 1; r < n && h[r].cycle < h[small].cycle {
			small = r
		}
		if last.cycle <= h[small].cycle {
			break
		}
		h[i] = h[small]
		i = small
	}
	if n > 0 {
		h[i] = last
	}
	w.ev = h
	return top
}

// drainEvents processes every pending entry past its front-end delay
// and every wheel event due by cycle now, re-evaluating each named
// entry. Draining is idempotent at a fixed cycle — it is exactly what
// issue does first — so the quiescence probe may drain early without
// perturbing a subsequent step.
func (c *cluster) drainEvents(now int64) {
	for c.pending.len() > 0 {
		h := c.pending.front()
		if c.pool[h].eligibleAt > now {
			break
		}
		c.pending.pop()
		c.evaluate(h, now)
	}
	for c.wheel.min() <= now {
		c.evaluate(c.wheel.pop().h, now)
	}
}

// nextEvent returns the first cycle after now at which a waiting e
// changes class — its last load's completion once no load is unissued,
// else its ready cycle once no producer is — or noEvent when only a
// producer issuing can change it.
func (e *entry) nextEvent(now int64) int64 {
	switch {
	case e.nwaitLd == 0 && e.memUntil > now:
		return e.memUntil
	case e.nwait == 0:
		return e.readyAt
	}
	return noEvent
}

// evaluate classifies a dispatched, eligible, unready entry at cycle
// now from its producer counters: ready, or waiting — on memory while a
// load producer is unissued or incomplete — with one wheel event at its
// next transition. Waiting entries exist only as the waitMemN/waitDataN
// tallies plus per-entry flags. Ready is terminal until issue.
func (c *cluster) evaluate(h handle, now int64) {
	e := &c.pool[h]
	if e.nwait == 0 && e.readyAt <= now {
		if e.queued == qWaiting {
			if e.waitMem {
				c.waitMemN--
			} else {
				c.waitDataN--
			}
		}
		e.queued = qReady
		c.insertReady(h, e.seq)
		return
	}
	memWait := e.nwaitLd > 0 || e.memUntil > now
	switch {
	case e.queued == qNone:
		e.queued = qWaiting
		e.waitMem = memWait
		if memWait {
			c.waitMemN++
		} else {
			c.waitDataN++
		}
	case e.waitMem != memWait:
		// The last load producer completed: memory → data.
		c.waitMemN--
		c.waitDataN++
		e.waitMem = false
	}
	if at := e.nextEvent(now); at != noEvent {
		c.wheelPush(at, h)
	}
}

// insertReady inserts h (of age seq) into the seq-sorted ready list.
// The ready set is small — entries leave it the cycle their FU is free
// — so a binary search plus short memmove beats a heap.
func (c *cluster) insertReady(h handle, seq uint64) {
	list := c.ready
	lo, hi := 0, len(list)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); c.pool[list[mid]].seq > seq {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if len(list) == cap(list) {
		c.overflow("ready list")
	}
	list = list[:len(list)+1]
	copy(list[lo+1:], list[lo:])
	list[lo] = h
	c.ready = list
}

// dispatchEvent registers a freshly fetched entry with the wakeup
// machinery — dispatched producers link it onto their consumer list
// and count as unissued, issued ones fold their completion into its
// counters — and queues it on the pending ring, whose pop at eligibleAt
// is the first cycle the issue stage may look at it.
func (c *cluster) dispatchEvent(h handle) {
	e := &c.pool[h]
	for k, r := range e.producers {
		p := c.resolve(r)
		if p == nil || (k == 1 && e.producers[0] == r) {
			// Stale producers committed long ago; a producer read by
			// both sources counts once.
			continue
		}
		if p.state == stateDispatched {
			e.consNext[k] = p.firstCons
			p.firstCons = h
			e.nwait++
			if p.isLoad {
				e.nwaitLd++
			}
		} else {
			e.fold(p)
		}
	}
	if !c.pending.push(h) {
		c.overflow("pending ring")
	}
}

// fold records issued producer p's completion in e's counters.
func (e *entry) fold(p *entry) {
	e.readyAt = max(e.readyAt, p.completeAt)
	if p.isLoad {
		e.memUntil = max(e.memUntil, p.completeAt)
	}
}

// wakeConsumers runs when the entry in slot h issues, its completeAt
// just set: each consumer counts one unissued producer fewer and folds
// the completion in. None changes class this cycle (the completion is
// in the future), but a waiting one may gain a next transition, and so
// its wheel event; one it had already stays put. Consumers still in
// the front-end delay wait for their pending pop.
func (c *cluster) wakeConsumers(h handle, now int64) {
	x := &c.pool[h]
	xr := c.refOf(h)
	for cur := x.firstCons; cur != 0; {
		ce := &c.pool[cur]
		next := ce.consNext[1]
		if ce.producers[0] == xr {
			next = ce.consNext[0]
		}
		before := ce.nextEvent(now)
		ce.nwait--
		if x.isLoad {
			ce.nwaitLd--
		}
		ce.fold(x)
		if at := ce.nextEvent(now); ce.queued == qWaiting && at != before {
			c.wheelPush(at, cur)
		}
		cur = next
	}
	x.firstCons = 0
}

func (c *cluster) wheelPush(cycle int64, h handle) {
	if !c.wheel.push(cycle, h) {
		c.overflow("wakeup wheel")
	}
}

// issue is the issue stage: drain due events, then pop oldest-first
// from the ready list only, starting up to IssueWidth entries on
// functional units. Ready entries are visited in the seq order a
// window scan walks, and failed attempts vote and retry through
// tryIssue. Every waiting entry then votes for its hazard class
// straight from the incremental tallies. The scan stops voting at the
// first entry after the width-th issue; that cut has no counterpart
// here because it cannot be observed — a cycle that issued IssueWidth
// entries wastes no slot, and the accounting reads the votes only to
// apportion wasted slots (stats.RecordCycle).
func (c *cluster) issue(s *Simulator, now int64, votes *stats.Votes) int {
	c.drainEvents(now)
	issued := 0
	kept := c.ready[:0]
	for i, h := range c.ready {
		if issued >= c.cfg.IssueWidth {
			// Writes into kept trail i, so this forward copy is safe.
			kept = append(kept, c.ready[i:]...)
			break
		}
		if c.tryIssue(s, h, now, votes) {
			c.pool[h].queued = qNone
			issued++
		} else {
			kept = append(kept, h)
		}
	}
	c.ready = kept
	votes[stats.Memory] += float64(c.waitMemN)
	votes[stats.Data] += float64(c.waitDataN)
	return issued
}
