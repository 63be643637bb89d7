// Package interconnect models the scalable network of Fig. 3 as
// per-node network-interface ports with fixed per-message occupancy.
// The Table 3 remote latencies are contention-free round trips; this
// package adds the queueing delay on top when ports are busy.
package interconnect

// Network is the chip-to-chip interconnect. Node i's port serializes
// the messages it sources or sinks.
type Network struct {
	ports     []int64
	occupancy int64

	Messages   uint64
	Conflicts  uint64
	BusyCycles uint64
}

// New returns a network for n nodes with the given per-message port
// occupancy in cycles, both positive (config.Machine.Validate).
func New(n, occupancy int) *Network {
	return &Network{ports: make([]int64, n), occupancy: int64(occupancy)}
}

func (n *Network) acquire(now int64, node int) int64 {
	start := now
	if n.ports[node] > start {
		n.Conflicts++
		n.BusyCycles += uint64(n.ports[node] - start)
		start = n.ports[node]
	}
	n.ports[node] = start + n.occupancy
	return start
}

// Transact serializes one request/response exchange between nodes from
// and to beginning no earlier than now, returning the cycle at which
// the exchange effectively starts (the Table 3 round-trip latency is
// then added by the caller). Same-node "transactions" are free.
func (n *Network) Transact(now int64, from, to int) int64 {
	if from == to {
		return now
	}
	n.Messages++
	start := n.acquire(now, from)
	return n.acquire(start, to)
}
