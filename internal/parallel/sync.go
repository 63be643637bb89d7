// Package parallel implements the multithreaded runtime model shared by
// the functional and timing simulators: named locks and barriers (the
// ANL-macro substitute) and a functional round-robin scheduler used to
// validate kernels independently of the timing pipeline.
//
// Synchronization objects are identified by small integer ids carried in
// the LOCK/UNLOCK/BARRIER instruction immediates; their state lives in
// this controller, not in simulated memory. Threads that cannot proceed
// (lock held, barrier not full) are blocked by the front end and their
// issue slots are attributed to the sync hazard, which is exactly how
// the paper accounts for spinning.
package parallel

import "fmt"

// NoOwner marks a free lock.
const NoOwner = -1

// Sync is the synchronization controller for one application run. It is
// deterministic: grant order is decided by the (deterministic) order in
// which the simulator polls threads.
type Sync struct {
	n int // number of threads participating in barriers

	// objs holds lock and barrier state (separate name spaces, one
	// table) at the small dense ids the program builder hands out, grown
	// on demand: the timing front end polls it for every blocked thread.
	objs []object

	// Stats.
	LockAcquires  uint64
	LockConflicts uint64 // failed TryLock polls
	BarrierWaits  uint64 // barrier episodes completed
}

// object is the state at one id; the zero value is a free lock and an
// untouched barrier.
type object struct {
	holder int    // owning thread + 1, 0 while the lock is free
	count  int    // threads parked at the barrier
	gen    uint64 // barrier episodes completed
}

// NewSync returns a controller for n barrier participants.
func NewSync(n int) *Sync {
	if n <= 0 {
		panic(fmt.Sprintf("parallel: invalid thread count %d", n))
	}
	// Room for the paper's kernels: no allocation at a first arrival.
	return &Sync{n: n, objs: make([]object, 0, 16)}
}

// at returns the object at id, growing the table (with free locks and
// untouched barriers) to reach it. id is in [0, isa.MaxSyncID): ids come
// from validated instructions (prog.Builder.Build) or a checkpoint that
// bounds them.
func (s *Sync) at(id int64) *object {
	for int64(len(s.objs)) <= id {
		s.objs = append(s.objs, object{})
	}
	return &s.objs[id]
}

// TryLock attempts to acquire lock id for tid. It returns true on
// success; a thread already owning the lock panics (the kernels never
// take a lock recursively).
func (s *Sync) TryLock(id int64, tid int) bool {
	o := s.at(id)
	if o.holder != 0 {
		if o.holder == tid+1 {
			panic(fmt.Sprintf("parallel: thread %d re-acquiring lock %d", tid, id))
		}
		s.LockConflicts++
		return false
	}
	o.holder = tid + 1
	s.LockAcquires++
	return true
}

// Unlock releases lock id. Releasing a lock the thread does not own
// panics: it indicates a kernel bug.
func (s *Sync) Unlock(id int64, tid int) {
	o := s.at(id)
	if o.holder != tid+1 {
		panic(fmt.Sprintf("parallel: thread %d unlocking lock %d owned by %d (held=%v)", tid, id, max(o.holder-1, 0), o.holder != 0))
	}
	o.holder = 0
}

// LockOwner returns the current owner of lock id, or NoOwner.
func (s *Sync) LockOwner(id int64) int { return s.at(id).holder - 1 }

// Arrive registers the calling thread at barrier id and returns the
// generation the thread must wait for. When the last participant
// arrives, the barrier trips: its generation advances and the arrival
// count resets, releasing all waiters.
func (s *Sync) Arrive(id int64) uint64 {
	o := s.at(id)
	target := o.gen + 1
	o.count++
	if o.count == s.n {
		o.count = 0
		o.gen = target
		s.BarrierWaits++
	} else if o.count > s.n {
		panic(fmt.Sprintf("parallel: barrier %d overfull", id))
	}
	return target
}

// Released reports whether barrier id has reached generation target.
func (s *Sync) Released(id int64, target uint64) bool { return s.at(id).gen >= target }

// HeldLocks returns the number of currently held locks (diagnostics and
// deadlock checks: must be zero at end of run).
func (s *Sync) HeldLocks() int {
	n := 0
	for _, o := range s.objs {
		if o.holder != 0 {
			n++
		}
	}
	return n
}
