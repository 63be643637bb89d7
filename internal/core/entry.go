package core

import (
	"clustersmt/internal/interp"
	"clustersmt/internal/isa"
)

// entryState tracks a window entry through its life.
type entryState uint8

const (
	stateDispatched entryState = iota // in the window, waiting to issue
	stateIssued                       // on a functional unit; done from completeAt
)

// handle names a window entry: a slot index into its cluster's entry
// pool (cluster.pool). Zero means "no entry"; slot 0 is never handed
// out. The structures that hold an entry only while it is in flight —
// the thread fifos, pending, ready, the wakeup wheel, the consumer
// lists, the store table — store bare handles.
type handle uint32

// ref is a handle that may outlive the entry it was bound to: a
// register producer, a forwarding candidate, a last-writer slot, a
// pending branch. Pool slots are recycled, so a ref carries the
// cluster-unique seq of the entry it meant. The stale-handle rule: when
// the slot's occupant has a different seq the original entry has
// committed and fetch has reused its slot, and every reader treats the
// ref exactly as it treats a committed entry — done, not a forwarding
// source, nothing to wait on (cluster.resolve returns nil). The zero ref
// is "none".
type ref struct {
	seq uint64
	h   handle
}

// entry is one instruction in a cluster's unified instruction window /
// reorder buffer (the two structures are the same size in every Table 2
// configuration, so they are modeled as one). A slot is taken at fetch
// and goes back on the free stack the cycle its instruction commits,
// so the pool is exactly WindowEntries slots. It holds no Go pointers,
// so the pool is one noscan allocation the collector never walks and
// the fetch path fills in with plain stores.
type entry struct {
	d   interp.DynInstr
	seq uint64 // cluster-wide age for oldest-first issue

	eligibleAt int64 // fetch cycle + FrontEndDelay (decode/rename depth)
	completeAt int64 // valid once issued

	// The issue stage's view of the producers (wakeup.go): readyAt and
	// memUntil are the latest completion cycle of the issued producers,
	// all of them and loads only. nwait and nwaitLd (below) count the
	// producers not yet issued, likewise.
	readyAt  int64
	memUntil int64

	// Producers of this entry's register sources that were in flight at
	// dispatch. Zero refs were architecturally ready.
	producers [2]ref

	// fwdStore is the youngest older same-thread, same-address store at
	// fetch time (the store table's answer, bound at dispatch). Loads
	// only; zero when no such store was in flight.
	fwdStore ref

	tid int32 // owning thread: index into Simulator.threads (== threadCtx.id)

	// firstCons heads this entry's intrusive consumer list — dependents
	// registered while it was an unissued producer, walked when it
	// issues; consNext[k] continues the list this entry joined through
	// its producer slot k (an entry sits on at most two consumer lists,
	// one per source). List members are dispatched, hence live, so the
	// links are bare handles.
	firstCons handle
	consNext  [2]handle

	state entryState

	// Issue-stage facts cached off the decoded slot at fetch, so the
	// (possibly many) issue retries never re-index the opcode table:
	// the functional-unit class (ClassNone pseudo-ops borrow an integer
	// slot), the raw Table 1 latency, and the unit occupancy once issued
	// (1 when pipelined, the full latency otherwise).
	fuCl isa.Class
	lat  uint8
	occ  uint8

	isLoad, isStore bool
	usesIntRename   bool
	usesFPRename    bool
	committed       bool // retired; the slot is free until fetch reuses it

	// queued tracks the entry's issue-stage classification; waitMem
	// caches the memory-vs-data hazard class while queued == qWaiting.
	queued  uint8
	waitMem bool
	nwait   uint8
	nwaitLd uint8
}

// addProducer wires p as a register producer of e, returning the
// updated producer count. Zero refs (architecturally ready sources) and
// overflow beyond the two source slots are ignored.
func (e *entry) addProducer(p ref, np int) int {
	if p.h == 0 || np >= len(e.producers) {
		return np
	}
	e.producers[np] = p
	return np + 1
}

// done reports whether the entry's result is available at cycle now.
func (e *entry) done(now int64) bool {
	return e.state == stateIssued && e.completeAt <= now
}

// resolve returns the entry r was bound to, or nil when r is empty or
// stale (the slot has been recycled for a younger instruction). A nil
// answer always stands for an entry that has committed.
func (c *cluster) resolve(r ref) *entry {
	if r.h == 0 {
		return nil
	}
	if e := &c.pool[r.h]; e.seq == r.seq {
		return e
	}
	return nil
}

// refDone reports whether the entry r was bound to has its result at
// cycle now.
func (c *cluster) refDone(r ref, now int64) bool {
	e := c.resolve(r)
	return e == nil || e.done(now)
}

// refOf returns a ref to the entry currently in slot h.
func (c *cluster) refOf(h handle) ref { return ref{seq: c.pool[h].seq, h: h} }

// forwardingStore returns the youngest older same-thread, same-address
// store still in the window, or nil ("full load bypassing" with exact
// disambiguation, §3.1 — addresses are known at fetch). The candidate
// was bound at fetch from the cluster's store table; because commit is
// in order per thread, the candidate having committed (or its slot
// having been recycled, which implies it) means every older
// same-address store has too, so the answer degrades straight to nil —
// no FIFO scan needed (the scan is the test oracle forwardingStoreScan
// in oracle_test.go).
func (c *cluster) forwardingStore(e *entry) *entry {
	if st := c.resolve(e.fwdStore); st != nil && !st.committed {
		return st
	}
	return nil
}

// ring is a fixed-capacity FIFO of handles, allocated once and never
// grown: the per-thread program-order fifo and the cluster's front-end
// pending ring.
type ring struct {
	buf  []handle
	head int
	n    int
}

func newRing(capacity int) ring { return ring{buf: make([]handle, capacity)} }

func (r *ring) len() int { return r.n }

// at returns the i-th handle from the front.
func (r *ring) at(i int) handle {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

func (r *ring) front() handle { return r.buf[r.head] }

// push appends h, reporting false when the ring is full.
func (r *ring) push(h handle) bool {
	if r.n == len(r.buf) {
		return false
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = h
	r.n++
	return true
}

func (r *ring) pop() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

// reset empties the ring (snapshot decode refills it from position 0).
func (r *ring) reset() { r.head, r.n = 0, 0 }
