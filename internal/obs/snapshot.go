package obs

import (
	"fmt"
	"math"

	"clustersmt/internal/snap"
)

// XferSnap transfers the ring's retained frames (oldest first) and its
// push accounting, so Dropped() is exact after a restore; decoding
// overlays a fresh ring of the same capacity.
func (r *Ring) XferSnap(x *snap.Xfer) {
	x.Const(len(r.frames), "obs: ring capacity")
	count, pushed := r.count, r.pushed
	x.Int(&count)
	x.Int(&pushed)
	if count < 0 || count > len(r.frames) || pushed < count {
		x.Fail(fmt.Errorf("obs: corrupt ring accounting (count %d, pushed %d)", count, pushed))
		return
	}
	if x.Decoding() {
		r.start, r.count, r.pushed = 0, count, pushed
	}
	for i := 0; i < count && x.Err() == nil; i++ {
		r.frames[(r.start+i)%len(r.frames)].xferSnap(x)
	}
}

func (f *Frame) xferSnap(x *snap.Xfer) {
	x.Int(&f.Index)
	x.I64(&f.Start)
	x.I64(&f.End)
	x.I64(&f.Cycles)
	x.U64(&f.Committed)
	x.F64(&f.IPC)
	x.Int(&f.Running)
	x.F64(&f.AvgRunning)
	snap.Each(f.Slots[:], x.F64)
	snap.Slice(x, &f.Clusters, math.MaxInt, "obs: frame clusters", func(c *ClusterSlots) {
		x.Int(&c.Chip)
		x.Int(&c.Cluster)
		snap.Each(c.Slots[:], x.F64)
	})
	f.Mem.XferSnap(x)
}

// XferSnap transfers the memory counter block of a frame.
func (m *MemFrame) XferSnap(x *snap.Xfer) {
	x.U64(&m.Loads)
	x.U64(&m.Stores)
	x.U64(&m.LoadRetries)
	x.U64(&m.L1Hits)
	x.U64(&m.L1Misses)
	x.U64(&m.L2Hits)
	x.U64(&m.L2Misses)
	x.Int(&m.MSHROccupancy)
	x.Int(&m.DirLines)
}
