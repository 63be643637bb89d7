// Package alloc is the pluggable thread-to-cluster allocation
// subsystem. Every thread starts at the seed placement (StaticPlace)
// whatever the policy; a policy is one Rebalance function, which the
// core consults at every epoch boundary with a committed per-epoch
// feedback snapshot sampled from the same counters the obs subsystem
// exposes. A nil Rebalance never migrates.
//
// The package is deliberately dependency-free (no core, no config):
// policies see only the plain sampled numbers in Snapshot, so they can
// be unit-tested without a simulator, and the determinism contract is
// easy to audit — Rebalance is a pure function of the snapshot, which
// the core builds between cycles from committed state only (never from
// mid-cycle state).
package alloc

import (
	"fmt"
	"sort"
	"strings"
)

// ClusterInfo describes one cluster's place in the machine at
// allocation time.
type ClusterInfo struct {
	GID      int // global cluster id, chip-major (chip*clustersPerChip + index)
	Chip     int // owning chip
	Index    int // index within the chip
	Capacity int // hardware thread contexts (Arch.ThreadsPerCluster)
}

// ThreadSample is one thread's feedback for the epoch that just ended.
type ThreadSample struct {
	ID        int
	Cluster   int    // current cluster GID
	Committed uint64 // instructions committed during the epoch
	Blocked   bool   // blocked on a lock/barrier/migration at the boundary
	Finished  bool   // halted and drained — never migrate these
	// SinceMigrate counts epochs since the thread last migrated
	// (0 = it moved during the epoch that just ended); -1 = never.
	SinceMigrate int64
}

// ClusterSample aggregates one cluster's feedback for the epoch. The
// memory-system deltas are chip-level (caches and MSHRs are per chip),
// so clusters on one chip repeat the same values.
type ClusterSample struct {
	ClusterInfo
	Threads  int // live (unfinished) threads currently assigned
	InFlight int // in-window instructions summed over its threads

	L1Misses      uint64 // chip L1 miss delta for the epoch
	L2Misses      uint64 // chip L2 miss delta for the epoch
	MSHROccupancy uint64 // chip MSHR occupancy at the boundary (a gauge, not a delta)
}

// Snapshot is the committed epoch-boundary state a policy decides
// from. It is rebuilt every epoch; policies must not retain it.
type Snapshot struct {
	Epoch    uint64 // 1-based epoch index
	Threads  []ThreadSample
	Clusters []ClusterSample
}

// Migration asks the core to move one thread to the cluster with the
// given GID. The core validates every request (live thread, real
// cluster, spare capacity counting in-flight migrations) and drops
// invalid ones deterministically.
type Migration struct {
	Thread int
	To     int
}

// Rebalance is one thread-to-cluster allocation policy: it proposes
// migrations from one committed epoch snapshot. Deterministic: equal
// snapshots must yield equal proposals.
type Rebalance func(s *Snapshot) []Migration

// StaticPlace is the seed placement every thread starts from under
// every policy: thread tid lands on chip tid%chips,
// cluster (tid/chips)%clustersPerChip — round-robin across chips first,
// then across a chip's clusters (standard SPMD placement), so
// consecutive thread ids land on different chips and clusters and a
// partially parallel application spreads its active threads over the
// whole machine.
func StaticPlace(threads int, clusters []ClusterInfo) []int {
	chips := 0
	perChip := 0
	for _, c := range clusters {
		if c.Chip+1 > chips {
			chips = c.Chip + 1
		}
		if c.Chip == 0 {
			perChip++
		}
	}
	gid := make(map[[2]int]int, len(clusters))
	for _, c := range clusters {
		gid[[2]int{c.Chip, c.Index}] = c.GID
	}
	out := make([]int, threads)
	for tid := 0; tid < threads; tid++ {
		chip := tid % chips
		local := tid / chips
		out[tid] = gid[[2]int{chip, local % perChip}]
	}
	return out
}

var registry = map[string]Rebalance{}

// Register adds a policy under name; a nil r is a policy that never
// migrates. It panics on duplicates — registration happens in package
// init blocks, so a collision is a programming error.
func Register(name string, r Rebalance) {
	if _, ok := registry[name]; ok {
		panic(fmt.Sprintf("alloc: policy %q registered twice", name))
	}
	registry[name] = r
}

// New resolves a policy by name; "" means "static". The result is nil
// for a policy that never migrates. Unknown names fail fast with the
// sorted registered list, so a typoed Machine.Alloc.Policy surfaces
// every valid choice.
func New(name string) (Rebalance, error) {
	if name == "" {
		name = "static"
	}
	r, ok := registry[name]
	if !ok {
		known := make([]string, 0, len(registry))
		for n := range registry {
			known = append(known, n)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("alloc: unknown policy %q (known: %s)", name, strings.Join(known, ", "))
	}
	return r, nil
}
