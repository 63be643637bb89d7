package memsys

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// sweepMSHR is the MSHR file by definition: a line→ready map whose
// completed fills are retired by sweeping every pending entry on every
// access. It is the oracle MSHRFile's heap-driven lazy retirement is
// driven against.
type sweepMSHR struct {
	cap     int
	pending map[int64]int64

	Merges, Rejected, Allocated uint64
}

func newSweepMSHR(capacity int) *sweepMSHR {
	return &sweepMSHR{cap: capacity, pending: make(map[int64]int64, capacity)}
}

func (m *sweepMSHR) retire(now int64) {
	for line, ready := range m.pending {
		if ready <= now {
			delete(m.pending, line)
		}
	}
}

func (m *sweepMSHR) Pending(now, line int64) (int64, bool) {
	m.retire(now)
	ready, ok := m.pending[line]
	if ok {
		m.Merges++
	}
	return ready, ok
}

func (m *sweepMSHR) TryAlloc(now, line, ready int64) bool {
	m.retire(now)
	if len(m.pending) >= m.cap {
		m.Rejected++
		return false
	}
	m.pending[line] = ready
	m.Allocated++
	return true
}

func (m *sweepMSHR) Free(now int64) int {
	m.retire(now)
	return m.cap - len(m.pending)
}

func (m *sweepMSHR) InFlight(now int64) int {
	m.retire(now)
	return len(m.pending)
}

func (m *sweepMSHR) Occupancy(now int64) int {
	n := 0
	for _, ready := range m.pending {
		if ready > now {
			n++
		}
	}
	return n
}

// TestMSHRDifferential drives MSHRFile and the sweep oracle with the
// same seeded op streams — the pipeline's Pending-then-TryAlloc
// sequence, bare TryAllocs that re-allocate a line whose earlier fill
// is still on the heap (the stale-heap-entry case), and the
// Free/InFlight/Occupancy probes — with out-of-order completion times
// and time that sometimes stands still. Every answer, the three
// counters and the pending set itself must agree after every op.
func TestMSHRDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 2 + rng.Intn(7)
		fast, ref := NewMSHRFile(capacity), newSweepMSHR(capacity)
		now := int64(0)
		realloc := 0
		for op := 0; op < 20_000; op++ {
			now += int64(rng.Intn(4)) * int64(rng.Intn(4))
			line := int64(rng.Intn(3*capacity)) * 64
			ready := now + 1 + int64(rng.Intn(120))
			what := fmt.Sprintf("seed %d op %d cycle %d line %#x", seed, op, now, line)
			switch k := rng.Intn(10); {
			case k < 4:
				r1, ok1 := fast.Pending(now, line)
				r2, ok2 := ref.Pending(now, line)
				if r1 != r2 || ok1 != ok2 {
					t.Fatalf("%s: Pending (%d, %v), oracle (%d, %v)", what, r1, ok1, r2, ok2)
				}
				if ok1 {
					break
				}
				fallthrough
			case k < 6:
				if _, live := ref.pending[line]; live {
					realloc++
				}
				if a, b := fast.TryAlloc(now, line, ready), ref.TryAlloc(now, line, ready); a != b {
					t.Fatalf("%s: TryAlloc %v, oracle %v", what, a, b)
				}
			case k < 8:
				if a, b := fast.Free(now), ref.Free(now); a != b {
					t.Fatalf("%s: Free %d, oracle %d", what, a, b)
				}
			case k < 9:
				if a, b := fast.InFlight(now), ref.InFlight(now); a != b {
					t.Fatalf("%s: InFlight %d, oracle %d", what, a, b)
				}
			default:
				at := now + int64(rng.Intn(60))
				if a, b := fast.Occupancy(at), ref.Occupancy(at); a != b {
					t.Fatalf("%s: Occupancy(%d) %d, oracle %d", what, at, a, b)
				}
			}
			if !maps.Equal(fast.pending, ref.pending) {
				t.Fatalf("%s: pending set %v, oracle %v", what, fast.pending, ref.pending)
			}
			if fast.Merges != ref.Merges || fast.Rejected != ref.Rejected || fast.Allocated != ref.Allocated {
				t.Fatalf("%s: counters %d/%d/%d, oracle %d/%d/%d", what,
					fast.Merges, fast.Rejected, fast.Allocated, ref.Merges, ref.Rejected, ref.Allocated)
			}
		}
		if ref.Merges == 0 || ref.Rejected == 0 || realloc == 0 {
			t.Errorf("seed %d: stream is vacuous: %d merges, %d rejections, %d re-allocations of a pending line",
				seed, ref.Merges, ref.Rejected, realloc)
		}
	}
}
