package parallel

import (
	"fmt"

	"clustersmt/internal/isa"
	"clustersmt/internal/snap"
)

// XferSnap transfers the controller's lock and barrier state and
// counters; decoding overlays a fresh controller for the same thread
// count. The table goes out as format v4's three id-sorted (id, value)
// lists: a lock's owner while held, a barrier's count once a thread has
// arrived, its generation once it has tripped.
func (s *Sync) XferSnap(x *snap.Xfer) {
	x.Const(s.n, "parallel: sync participants")
	s.sparse(x, "parallel: lock owners", func(o *object) bool { return o.holder != 0 }, func(o *object) {
		owner := o.holder - 1
		x.Int(&owner)
		o.holder = owner + 1
	})
	s.sparse(x, "parallel: barrier counts", func(o *object) bool { return o.count != 0 || o.gen != 0 },
		func(o *object) { x.Int(&o.count) })
	s.sparse(x, "parallel: barrier generations", func(o *object) bool { return o.gen != 0 },
		func(o *object) { x.U64(&o.gen) })
	x.U64(&s.LockAcquires)
	x.U64(&s.LockConflicts)
	x.U64(&s.BarrierWaits)
}

// sparse transfers one field of the present objects as a counted
// (id, value) list in ascending id order.
func (s *Sync) sparse(x *snap.Xfer, what string, present func(*object) bool, val func(*object)) {
	var ids []int64
	for i := range s.objs {
		if present(&s.objs[i]) {
			ids = append(ids, int64(i))
		}
	}
	n := len(ids)
	x.Count(&n, isa.MaxSyncID, what)
	for i := 0; i < n && x.Err() == nil; i++ {
		var id int64
		if !x.Decoding() {
			id = ids[i]
		}
		if x.I64(&id); id < 0 || id >= isa.MaxSyncID {
			x.Fail(fmt.Errorf("%s: id %d outside [0, %d)", what, id, isa.MaxSyncID))
			return
		}
		val(s.at(id))
	}
}
