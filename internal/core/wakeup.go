package core

import "clustersmt/internal/stats"

// This file implements the issue stage. It is dependence-driven: when
// an entry issues it pushes a wakeup onto each in-flight consumer — the
// inverse of the entry.producers links — scheduled at its completeAt; a
// per-cluster wakeup wheel re-evaluates woken entries and moves those
// whose last producer resolved into a seq-ordered ready list, so issue
// pops oldest-first from ready entries only instead of polling all
// WindowEntries every cycle. Entries still inside the decode/rename
// delay sit in a plain FIFO ring (eligibleAt is monotone in fetch
// order, so no wheel event is needed to order them), and unready
// entries sit in an unsorted waiting set whose memory/data hazard
// tallies are maintained incrementally.
//
// The stage is defined by the per-cycle window scan it stands for
// (§4.1): every eligible unissued entry, oldest first, either issues,
// or votes for its hazard class — sourcesReady's memory/data verdict
// for unready sources, tryIssue's for the rest — until IssueWidth
// entries have issued. The contract is the same as cluster sleep's
// (fastforward.go): a Result bit-identical to that definition's, not
// an approximation. The scan itself lives in oracle_test.go; the
// differential tests run it against this stage on the full Result, and
// audit every cycle that the ready list and the waiting tallies equal
// what a scan would derive.
//
// Events are at-least-once: an entry with two in-flight producers gets
// a wakeup from each, and the pending pop races producer completions.
// evaluate is therefore idempotent — guarded on state, eligibility and
// current queue membership — and stale events (for entries that issued
// or committed since being scheduled) fall through the state guard.
// Pool slots are recycled, so every wheel event is a seq-checked ref:
// an event whose slot now holds a younger instruction resolves to nil
// and is dropped, exactly as an event for a committed entry with an
// already-walked consumer list falls through (entry.go, the
// stale-handle rule). Everything here is a fixed-capacity array of
// handles sized at construction — no maps, no pointers, nothing for the
// collector to barrier or mark.

// entry.queued states: membership in the cluster's issue bookkeeping.
const (
	qNone    uint8 = iota // not yet visible to the issue stage
	qWaiting              // eligible but blocked on an unready producer
	qReady                // sources resolved; an issue candidate
)

// wheelEvent schedules the entry behind r for re-evaluation at cycle.
type wheelEvent struct {
	cycle int64
	r     ref
}

// wheel is the wakeup wheel: a fixed-capacity binary min-heap of events
// keyed by cycle. Same-cycle events pop in no particular order, which
// is invisible: draining an event only reclassifies the entries it
// names from state that no other same-cycle event changes (evaluate
// reads producers' done-ness and writes its own entry's queue
// membership; ready insertion is by seq), so same-cycle drains commute.
// Capacity is one self event per pool slot (wake) plus one per source
// of each unissued entry (dispatchEvent).
type wheel struct {
	ev []wheelEvent
}

func newWheel(capacity int) wheel { return wheel{ev: make([]wheelEvent, 0, capacity)} }

// push schedules r for re-evaluation at the given cycle, reporting
// false when the wheel is full.
func (w *wheel) push(cycle int64, r ref) bool {
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
	h[i] = wheelEvent{cycle: cycle, r: r}
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
// and every wheel event due by cycle now, re-evaluating each woken
// entry. Draining is idempotent at a fixed cycle — it is exactly what
// issue does first — so the quiescence probe may drain
// early without perturbing a subsequent step.
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
		ev := c.wheel.pop()
		x := c.resolve(ev.r)
		if x == nil {
			continue // slot recycled: a long-committed entry's leftover event
		}
		if x.state == stateDispatched {
			// A wakeup scheduled for x itself (dispatchEvent saw an
			// already-issued producer).
			c.evaluate(ev.r.h, now)
			continue
		}
		if !x.done(now) {
			// Stale wakeup for an entry that issued since it was
			// scheduled; its own completion event (wake) will walk
			// the consumers.
			continue
		}
		// x's completion: wake its consumer chain. Every consumer
		// is still dispatched here — it cannot have issued before
		// x was done, and this walk runs before any issue at the
		// first cycle that sees x done (a cluster never sleeps
		// past wheel.min()) — so the producer links that select
		// the next-link slot are intact. x itself may have
		// committed earlier this very cycle, freeing its slot; the
		// slot is not reused before this cycle's fetch, so the list
		// head is intact too.
		cur := x.firstCons
		x.firstCons = 0 // chains are walked exactly once
		for cur != 0 {
			ce := &c.pool[cur]
			next := ce.consNext[1]
			if ce.producers[0] == ev.r {
				next = ce.consNext[0]
			}
			c.evaluate(cur, now)
			cur = next
		}
	}
}

// evaluate reclassifies a dispatched entry at cycle now: into ready
// when every producer has resolved, otherwise into (or within) the
// waiting state with its memory-vs-data hazard class kept current —
// the sourcesReady verdict a per-cycle scan would re-derive, computed
// only when an event can have changed it. Waiting entries exist only
// as the aggregate waitMemN/waitDataN tallies plus per-entry flags (no
// list to maintain per transition).
// Producers never become un-done, so ready is terminal until issue.
func (c *cluster) evaluate(h handle, now int64) {
	e := &c.pool[h]
	if e.state != stateDispatched || now < e.eligibleAt || e.queued == qReady {
		return
	}
	ready, memWait := c.sourcesReady(e, now)
	if ready {
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
	if e.queued == qNone {
		e.queued = qWaiting
		e.waitMem = memWait
		if memWait {
			c.waitMemN++
		} else {
			c.waitDataN++
		}
		return
	}
	// Still waiting, but a completed load producer may have flipped the
	// hazard class from memory to data (or a remaining load the other
	// way); keep the incremental tallies exact.
	if e.waitMem != memWait {
		if memWait {
			c.waitDataN--
			c.waitMemN++
		} else {
			c.waitMemN--
			c.waitDataN++
		}
		e.waitMem = memWait
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
// machinery: it subscribes to each in-flight producer — dispatched
// producers link it onto their intrusive consumer list (walked when
// their completion event pops), already-issued ones get a wheel wakeup
// at their completion — and queues the entry on the pending ring,
// whose pop at eligibleAt is the first cycle the issue stage may look
// at it.
func (c *cluster) dispatchEvent(h handle) {
	e := &c.pool[h]
	for k, r := range e.producers {
		p := c.resolve(r)
		if p == nil || (k == 1 && e.producers[0] == r) {
			// Stale producers committed long ago. Slot 1 duplicating
			// slot 0 (both sources read the same in-flight result) must
			// link only once.
			continue
		}
		if p.state == stateDispatched {
			e.consNext[k] = p.firstCons
			p.firstCons = h
		} else if p.completeAt > e.eligibleAt {
			c.wheelPush(p.completeAt, c.refOf(h))
		}
		// Producers already done by eligibleAt are covered by the
		// pending pop below.
	}
	if !c.pending.push(h) {
		c.overflow("pending ring")
	}
}

// wake fires when the entry in slot h issues: its completion becomes a
// wheel event — the consumer-chain walk, the sleeper's next-event
// bound, and the commit-progress signal even when nothing reads the
// result.
func (c *cluster) wake(h handle) {
	c.wheelPush(c.pool[h].completeAt, c.refOf(h))
}

func (c *cluster) wheelPush(cycle int64, r ref) {
	if !c.wheel.push(cycle, r) {
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
