package interconnect

import (
	"testing"
	"testing/quick"
)

func TestSameNodeIsFree(t *testing.T) {
	n := New(4, 4)
	if s := n.Transact(100, 2, 2); s != 100 {
		t.Fatalf("same-node start = %d", s)
	}
	if n.Messages != 0 {
		t.Fatal("same-node transaction counted as a message")
	}
}

func TestPortSerialization(t *testing.T) {
	n := New(2, 4)
	// Port occupancy models contention only; the Table 3 round-trip
	// latencies carry the wire delay, so an uncontended exchange
	// starts immediately.
	s1 := n.Transact(0, 0, 1)
	if s1 != 0 {
		t.Fatalf("first transact start = %d, want 0", s1)
	}
	// A second message between the same pair queues behind both ports.
	s2 := n.Transact(0, 0, 1)
	if s2 != 4 {
		t.Fatalf("second transact start = %d, want 4", s2)
	}
	if n.Conflicts == 0 {
		t.Fatal("no conflicts recorded")
	}
}

func TestDistinctPairsDontConflict(t *testing.T) {
	n := New(4, 4)
	s1 := n.Transact(0, 0, 1)
	s2 := n.Transact(0, 2, 3)
	if s1 != s2 {
		t.Fatalf("independent pairs serialized: %d vs %d", s1, s2)
	}
}

// Property: the returned start (the destination port's service start)
// is monotone non-decreasing per destination port and never precedes
// the request.
func TestTransactMonotone(t *testing.T) {
	f := func(ops []uint8) bool {
		n := New(4, 2)
		now := int64(0)
		last := make([]int64, 4)
		for _, op := range ops {
			from := int(op) % 4
			to := int(op>>2) % 4
			now += int64(op % 3)
			s := n.Transact(now, from, to)
			if s < now {
				return false
			}
			if from != to {
				if s < last[to] {
					return false
				}
				last[to] = s
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
