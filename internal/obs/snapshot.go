package obs

import (
	"fmt"

	"clustersmt/internal/snap"
)

// XferSnap transfers the ring's retained frames (oldest first) and its
// push accounting, so Dropped() is exact after a restore; decoding
// overlays a fresh ring of the same capacity. clusters is the
// machine's cluster count, which bounds every frame's per-cluster list.
func (r *Ring) XferSnap(x *snap.Xfer, clusters int) {
	r.xferSnap(x, func(f *Frame) { f.xferSnap(x, clusters) })
}

// xferSnap transfers the retained elements with elem.
func (b *Buffer[T]) xferSnap(x *snap.Xfer, elem func(*T)) {
	x.Const(len(b.elems), "obs: ring capacity")
	count, pushed := b.count, b.pushed
	x.Int(&count)
	x.Int(&pushed)
	if count < 0 || count > len(b.elems) || pushed < count {
		x.Fail(fmt.Errorf("obs: corrupt ring accounting (count %d, pushed %d)", count, pushed))
		return
	}
	if x.Decoding() {
		b.start, b.count, b.pushed = 0, count, pushed
	}
	for i := 0; i < count && x.Err() == nil; i++ {
		elem(&b.elems[(b.start+i)%len(b.elems)])
	}
}

func (f *Frame) xferSnap(x *snap.Xfer, clusters int) {
	x.Int(&f.Index)
	x.I64(&f.Start)
	x.I64(&f.End)
	x.I64(&f.Cycles)
	x.U64(&f.Committed)
	x.F64(&f.IPC)
	x.Int(&f.Running)
	x.F64(&f.AvgRunning)
	snap.Each(f.Slots[:], x.F64)
	snap.Slice(x, &f.Clusters, clusters, "obs: frame clusters", func(c *ClusterSlots) {
		x.Int(&c.Chip)
		x.Int(&c.Cluster)
		snap.Each(c.Slots[:], x.F64)
	})
	f.Mem.XferSnap(x)
}
