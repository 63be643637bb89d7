package alloc

import (
	"fmt"
	"reflect"
	"testing"
)

// grid builds the ClusterInfo layout for a chips × perChip machine in
// the chip-major GID order the core hands policies.
func grid(chips, perChip, capacity int) []ClusterInfo {
	var out []ClusterInfo
	for c := 0; c < chips; c++ {
		for i := 0; i < perChip; i++ {
			out = append(out, ClusterInfo{GID: c*perChip + i, Chip: c, Index: i, Capacity: capacity})
		}
	}
	return out
}

func TestStaticPlace(t *testing.T) {
	cases := []struct {
		chips, perChip, capacity, threads int
	}{
		{1, 2, 4, 8},  // low-end/SMT2
		{4, 2, 4, 32}, // high-end/SMT2
		{1, 8, 1, 8},  // low-end/FA8
		{4, 1, 8, 32}, // high-end/SMT1
	}
	for _, c := range cases {
		infos := grid(c.chips, c.perChip, c.capacity)
		got := StaticPlace(c.threads, infos)
		occ := make([]int, len(infos))
		for tid := 0; tid < c.threads; tid++ {
			// The seed formula: round-robin across chips first, then
			// across a chip's clusters.
			chip := tid % c.chips
			want := chip*c.perChip + (tid/c.chips)%c.perChip
			if got[tid] != want {
				t.Fatalf("%d×%d: thread %d placed on %d, want %d", c.chips, c.perChip, tid, got[tid], want)
			}
			occ[got[tid]]++
		}
		for g, n := range occ {
			if n > c.capacity {
				t.Fatalf("%d×%d: cluster %d holds %d threads, capacity %d", c.chips, c.perChip, g, n, c.capacity)
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"", "static"} {
		if r, err := New(name); err != nil || r != nil {
			t.Fatalf("New(%q) = non-nil %t, %v; want a nil Rebalance (never migrates)", name, r != nil, err)
		}
	}
	for _, name := range []string{"icount", "symbiosis"} {
		r, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			t.Fatalf("New(%q) returned a nil Rebalance", name)
		}
		if r(&Snapshot{}) != nil {
			t.Fatalf("%s proposed migrations from an empty snapshot", name)
		}
	}
	// The oracle is a figure column (a searched start assignment), not
	// a runtime policy: the registry refuses it like any unknown name,
	// listing every registered policy in sorted order.
	for _, name := range []string{"oracle", "nosuch"} {
		_, err := New(name)
		want := fmt.Sprintf("alloc: unknown policy %q (known: icount, static, symbiosis)", name)
		if err == nil || err.Error() != want {
			t.Fatalf("New(%q) = %v; want %q", name, err, want)
		}
	}
}

// snap2 builds a two-cluster snapshot (single chip, capacity 4) with
// the given live-thread split and in-flight totals; threads are dealt
// to cluster 0 first, all live and unblocked, committed = 10+tid so
// thread IDs order the victim choice deterministically.
func snap2(live0, live1, inflight0, inflight1 int) *Snapshot {
	s := &Snapshot{Epoch: 1}
	infos := grid(1, 2, 4)
	s.Clusters = []ClusterSample{
		{ClusterInfo: infos[0], Threads: live0, InFlight: inflight0},
		{ClusterInfo: infos[1], Threads: live1, InFlight: inflight1},
	}
	tid := 0
	for i, n := range []int{live0, live1} {
		for j := 0; j < n; j++ {
			s.Threads = append(s.Threads, ThreadSample{
				ID: tid, Cluster: i, Committed: uint64(10 + tid), SinceMigrate: -1,
			})
			tid++
		}
	}
	return s
}

func TestICountRebalance(t *testing.T) {
	// Gross imbalance: move the least-committed (lowest-ID) thread to
	// the empty cluster.
	got := ICount(snap2(4, 0, 40, 0))
	want := []Migration{{Thread: 0, To: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("imbalanced: got %v, want %v", got, want)
	}

	// Convergence guard: a 3/2 split must not move (it would only swap
	// which cluster is ahead).
	if got := ICount(snap2(3, 2, 30, 20)); got != nil {
		t.Fatalf("3/2 split migrated: %v", got)
	}

	// The in-flight signal must agree with the live-count signal.
	if got := ICount(snap2(4, 1, 5, 50)); got != nil {
		t.Fatalf("in-flight disagreement migrated: %v", got)
	}

	// Single cluster: nothing to do.
	s := snap2(4, 0, 40, 0)
	s.Clusters = s.Clusters[:1]
	if got := ICount(s); got != nil {
		t.Fatalf("single cluster migrated: %v", got)
	}

	// Hysteresis: threads that just moved are ineligible; the next
	// least-committed eligible thread goes instead.
	s = snap2(4, 0, 40, 0)
	s.Threads[0].SinceMigrate = 0
	s.Threads[1].SinceMigrate = 1
	got = ICount(s)
	want = []Migration{{Thread: 2, To: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hysteresis: got %v, want %v", got, want)
	}

	// Blocked and finished threads never move; with everything on the
	// source pinned there is no victim.
	s = snap2(4, 0, 40, 0)
	for i := range s.Threads {
		if i%2 == 0 {
			s.Threads[i].Blocked = true
		} else {
			s.Threads[i].Finished = true
		}
	}
	if got := ICount(s); got != nil {
		t.Fatalf("pinned source migrated: %v", got)
	}
}

// snapChips builds a two-chip snapshot (one cluster per chip, capacity
// 4) with per-chip live counts and L2 miss deltas.
func snapChips(live0, live1 int, l2miss0, l2miss1 uint64) *Snapshot {
	s := &Snapshot{Epoch: 1}
	infos := grid(2, 1, 4)
	s.Clusters = []ClusterSample{
		{ClusterInfo: infos[0], Threads: live0, InFlight: live0 * 10, L2Misses: l2miss0},
		{ClusterInfo: infos[1], Threads: live1, InFlight: live1 * 10, L2Misses: l2miss1},
	}
	tid := 0
	for i, n := range []int{live0, live1} {
		for j := 0; j < n; j++ {
			s.Threads = append(s.Threads, ThreadSample{
				ID: tid, Cluster: i, Committed: uint64(10 + tid), SinceMigrate: -1,
			})
			tid++
		}
	}
	return s
}

func TestSymbiosisRebalance(t *testing.T) {
	// Cache antagonism: the pressured chip sheds its least-committed
	// thread to the quiet chip.
	got := Symbiosis(snapChips(4, 0, 900, 0))
	want := []Migration{{Thread: 0, To: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("antagonistic chips: got %v, want %v", got, want)
	}

	// Pressure inverted relative to load: the count guard (hot must
	// hold two more live threads than cold) blocks the cross-chip move,
	// and the icount fallback moves off the crowded chip instead.
	got = Symbiosis(snapChips(4, 1, 0, 900))
	want = []Migration{{Thread: 0, To: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("inverted pressure: got %v, want %v", got, want)
	}

	// Flat pressure falls back to plain live-count balancing.
	got = Symbiosis(snapChips(4, 0, 0, 0))
	want = []Migration{{Thread: 0, To: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flat pressure: got %v, want %v", got, want)
	}

	// Balanced machine: nothing to do even under pressure.
	if got := Symbiosis(snapChips(2, 2, 900, 0)); got != nil {
		t.Fatalf("balanced chips migrated: %v", got)
	}
}

// TestRebalanceDeterminism pins the contract the core's run
// determinism depends on: equal snapshots yield equal proposals.
func TestRebalanceDeterminism(t *testing.T) {
	for _, name := range []string{"icount", "symbiosis"} {
		r, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		first := r(snapChips(4, 0, 900, 0))
		for i := 0; i < 8; i++ {
			if got := r(snapChips(4, 0, 900, 0)); !reflect.DeepEqual(first, got) {
				t.Fatalf("%s: proposal changed between identical snapshots: %v vs %v", name, first, got)
			}
		}
	}
}
