package interconnect

import "clustersmt/internal/snap"

// Clone returns an independent deep copy of the network.
func (n *Network) Clone() *Network {
	cp := *n
	cp.ports = append([]int64(nil), n.ports...)
	return &cp
}

// XferSnap transfers the per-port next-free cycles and counters,
// overlaying a fresh network of the same size when decoding; the
// geometry (node count, occupancy) is config-derived and validated
// rather than trusted from the stream.
func (n *Network) XferSnap(x *snap.Xfer) {
	x.Const(len(n.ports), "interconnect: ports")
	snap.Each(n.ports, x.I64)
	x.U64(&n.Messages)
	x.U64(&n.Conflicts)
	x.U64(&n.BusyCycles)
}
