package parallel

import "clustersmt/internal/snap"

// XferSnap transfers the controller's lock and barrier state (maps
// sorted by id) and counters; decoding overlays a fresh controller for
// the same thread count.
func (s *Sync) XferSnap(x *snap.Xfer) {
	x.Const(s.n, "parallel: sync participants")
	snap.Map(x, s.lockOwn, "parallel: lock owners", x.Int)
	snap.Map(x, s.barCount, "parallel: barrier counts", x.Int)
	snap.Map(x, s.barGen, "parallel: barrier generations", x.U64)
	x.U64(&s.LockAcquires)
	x.U64(&s.LockConflicts)
	x.U64(&s.BarrierWaits)
}
