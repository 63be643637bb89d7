package memsys

import (
	"reflect"
	"testing"
	"testing/quick"

	"clustersmt/internal/config"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache("t", 1, 64, 2) // 1KB, 64B lines, 2-way: 8 sets
	if c.Sets() != 8 {
		t.Fatalf("sets = %d, want 8", c.Sets())
	}
	if st := c.Lookup(0); st != Invalid {
		t.Fatal("cold lookup should miss")
	}
	c.Insert(0, Shared)
	if st := c.Lookup(0); st != Shared {
		t.Fatalf("after insert state = %v", st)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache("t", 1, 64, 2) // 8 sets; same set every 8 lines
	setStride := int64(8 * 64)
	a, b2, d := int64(0), setStride, 2*setStride
	c.Insert(a, Shared)
	c.Insert(b2, Shared)
	c.Lookup(a) // make a MRU
	v := c.Insert(d, Shared)
	if !v.Evicted || v.Line != b2 {
		t.Fatalf("victim = %+v, want line %d", v, b2)
	}
	if c.Probe(a) == Invalid || c.Probe(d) == Invalid {
		t.Fatal("resident lines missing")
	}
	if c.Probe(b2) != Invalid {
		t.Fatal("victim still resident")
	}
}

func TestCacheModifiedWritebackCount(t *testing.T) {
	c := NewCache("t", 1, 64, 2)
	setStride := int64(8 * 64)
	c.Insert(0, Modified)
	c.Insert(setStride, Shared)
	c.Insert(2*setStride, Shared) // evicts LRU = line 0 (Modified)
	if c.WritebackEvictions != 1 {
		t.Fatalf("writebacks = %d, want 1", c.WritebackEvictions)
	}
}

func TestCacheInsertExistingUpdatesState(t *testing.T) {
	c := NewCache("t", 1, 64, 2)
	c.Insert(0, Shared)
	v := c.Insert(0, Modified)
	if v.Evicted {
		t.Fatal("re-insert must not evict")
	}
	if c.Probe(0) != Modified {
		t.Fatal("state not updated")
	}
	if c.Resident() != 1 {
		t.Fatalf("resident = %d", c.Resident())
	}
}

func TestCacheSetStateAndInvalidate(t *testing.T) {
	c := NewCache("t", 1, 64, 2)
	c.Insert(64, Shared)
	c.SetState(64, Modified)
	if c.Probe(64) != Modified {
		t.Fatal("upgrade failed")
	}
	c.SetState(64, Invalid)
	if c.Probe(64) != Invalid {
		t.Fatal("invalidate failed")
	}
	// SetState on absent line is a no-op.
	c.SetState(4096, Modified)
	if c.Probe(4096) != Invalid {
		t.Fatal("phantom line appeared")
	}
}

// Property: a cache never holds the same line in two ways, and Resident
// never exceeds capacity.
func TestCacheInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewCache("t", 1, 64, 2)
		for _, op := range ops {
			line := int64(op%64) * 64
			switch op % 3 {
			case 0:
				c.Insert(line, Shared)
			case 1:
				c.Insert(line, Modified)
			case 2:
				c.Lookup(line)
			}
			if c.Resident() > 16 {
				return false
			}
		}
		// No duplicate lines.
		seen := map[int64]bool{}
		for _, w := range denseWays(c) {
			if w.state == Invalid {
				continue
			}
			if seen[w.line] {
				return false
			}
			seen[w.line] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBankSetContention(t *testing.T) {
	b := NewBankSet(2, 1, 64)
	s1 := b.Acquire(10, 0)   // bank 0
	s2 := b.Acquire(10, 64)  // bank 1: no conflict
	s3 := b.Acquire(10, 128) // bank 0 again: conflicts
	if s1 != 10 || s2 != 10 {
		t.Fatalf("starts = %d,%d, want 10,10", s1, s2)
	}
	if s3 != 11 {
		t.Fatalf("conflicting start = %d, want 11", s3)
	}
	if b.Conflicts != 1 {
		t.Fatalf("conflicts = %d", b.Conflicts)
	}
}

func TestBankSetExtend(t *testing.T) {
	b := NewBankSet(1, 1, 64)
	s1 := b.Acquire(100, 0) // bank free at 101
	b.Extend(0, 8)          // fill occupancy: free at 109
	if s1 != 100 {
		t.Fatalf("first start = %d", s1)
	}
	if s := b.Acquire(100, 0); s != 109 {
		t.Fatalf("start after extend = %d, want 109", s)
	}
}

func TestTLBHitMissAndCapacity(t *testing.T) {
	tlb := NewTLB(4, 1)
	for p := int64(0); p < 4; p++ {
		if tlb.Access(p) {
			t.Fatalf("page %d: cold hit", p)
		}
	}
	for p := int64(0); p < 4; p++ {
		if !tlb.Access(p) {
			t.Fatalf("page %d: warm miss", p)
		}
	}
	tlb.Access(100) // evicts someone
	if tlb.Resident() != 4 {
		t.Fatalf("resident = %d, want 4", tlb.Resident())
	}
	if !tlb.Access(100) {
		t.Fatal("just-installed page missed")
	}
	if tlb.Miss != 5 || tlb.Hit != 5 {
		t.Fatalf("hit=%d miss=%d", tlb.Hit, tlb.Miss)
	}
}

func TestTLBDeterminism(t *testing.T) {
	run := func() []int64 {
		tlb := NewTLB(8, 42)
		var order []int64
		for p := int64(0); p < 64; p++ {
			tlb.Access(p % 17)
		}
		for p := int64(0); p < 17; p++ {
			if tlb.Access(p) {
				order = append(order, p)
			}
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic TLB")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic TLB contents")
		}
	}
}

func TestMSHRMergeAndCapacity(t *testing.T) {
	m := NewMSHRFile(2)
	if !m.TryAlloc(0, 64, 100) {
		t.Fatal("alloc 1 failed")
	}
	if !m.TryAlloc(0, 128, 100) {
		t.Fatal("alloc 2 failed")
	}
	if m.TryAlloc(0, 192, 100) {
		t.Fatal("alloc 3 should fail (full)")
	}
	if ready, ok := m.Pending(50, 64); !ok || ready != 100 {
		t.Fatalf("pending = %d,%v", ready, ok)
	}
	// After fills complete, entries retire lazily.
	if m.Free(100) != 2 {
		t.Fatalf("free after completion = %d, want 2", m.Free(100))
	}
	if m.Rejected != 1 || m.Merges != 1 || m.Allocated != 2 {
		t.Fatalf("stats: %+v", m)
	}
}

func TestChipInclusionOnL2Eviction(t *testing.T) {
	cfg := config.DefaultMem()
	// Tiny L2 to force eviction: 4KB 4-way with 64B lines = 16 sets.
	cfg.L2SizeKB = 4
	cfg.L1SizeKB = 4
	c := NewChip(0, cfg)
	setStride := int64(16 * 64)
	// Fill one L2 set beyond capacity.
	var lines []int64
	for i := int64(0); i <= 4; i++ {
		l := i * setStride
		c.Install(l, Shared)
		lines = append(lines, l)
	}
	// Exactly one of the first lines must have been evicted from L2 and
	// by inclusion from L1.
	evicted := 0
	for _, l := range lines {
		if c.L2.Probe(l) == Invalid {
			evicted++
			if c.L1.Probe(l) != Invalid {
				t.Fatalf("line %d: evicted from L2 but still in L1", l)
			}
		}
	}
	if evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
}

func TestChipMarkModified(t *testing.T) {
	cfg := config.DefaultMem()
	c := NewChip(0, cfg)
	c.Install(0, Shared)
	c.MarkModified(0)
	if c.L1.Probe(0) != Modified || c.L2.Probe(0) != Modified {
		t.Fatal("MarkModified did not reach both levels")
	}
	// L2-only resident line refills L1.
	c.L1.SetState(0, Invalid)
	c.MarkModified(0)
	if c.L1.Probe(0) != Modified {
		t.Fatal("MarkModified did not refill L1")
	}
}

func TestChipDowngradeAndInvalidate(t *testing.T) {
	c := NewChip(0, config.DefaultMem())
	c.Install(64, Modified)
	c.Downgrade(64)
	if c.L1.Probe(64) != Shared || c.L2.Probe(64) != Shared {
		t.Fatal("downgrade failed")
	}
	c.Invalidate(64)
	if c.State(64) != Invalid {
		t.Fatal("invalidate failed")
	}
}

// Property (stat conservation): every Lookup counts exactly one hit or
// one miss, and writeback evictions are a subset of evictions, under
// arbitrary interleavings of lookups, inserts and invalidations.
func TestCacheStatConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewCache("t", 1, 64, 2)
		lookups := uint64(0)
		for _, op := range ops {
			line := int64(op%64) * 64
			switch op % 4 {
			case 0:
				c.Lookup(line)
				lookups++
			case 1:
				c.Insert(line, Shared)
			case 2:
				c.Insert(line, Modified)
			case 3:
				c.SetState(line, Invalid)
			}
		}
		return c.Hits+c.Misses == lookups && c.Evictions >= c.WritebackEvictions
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property (single-walk equivalence): driving one cache through
// FindWay+TouchHit/TouchMiss — the load path's single set walk — and a
// twin through plain Lookup leaves both with identical stats and
// identical tag/LRU contents under random access streams.
func TestCacheSingleWalkDifferential(t *testing.T) {
	f := func(ops []uint16) bool {
		ref := NewCache("ref", 1, 64, 2)
		fast := NewCache("fast", 1, 64, 2)
		for _, op := range ops {
			line := int64(op%64) * 64
			if op%3 == 0 {
				ref.Insert(line, Shared)
				fast.Insert(line, Shared)
				continue
			}
			refSt := ref.Lookup(line)
			var fastSt LineState
			if wi := fast.FindWay(line); wi >= 0 {
				fastSt = fast.TouchHit(wi)
			} else {
				fast.TouchMiss()
				fastSt = Invalid
			}
			if refSt != fastSt {
				return false
			}
		}
		if ref.Hits != fast.Hits || ref.Misses != fast.Misses || ref.tick != fast.tick {
			return false
		}
		return reflect.DeepEqual(denseWays(ref), denseWays(fast))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMSHROccupancyReadOnly: the observability probe must count
// outstanding fills without retiring completed ones — retirement order
// (and hence Merges/Allocated accounting) stays untouched.
func TestMSHROccupancyReadOnly(t *testing.T) {
	m := NewMSHRFile(4)
	if !m.TryAlloc(0, 64, 10) || !m.TryAlloc(0, 128, 20) {
		t.Fatal("allocations failed")
	}
	if got := m.Occupancy(5); got != 2 {
		t.Errorf("Occupancy(5) = %d, want 2", got)
	}
	if got := m.Occupancy(15); got != 1 {
		t.Errorf("Occupancy(15) = %d, want 1", got)
	}
	if got := m.Occupancy(25); got != 0 {
		t.Errorf("Occupancy(25) = %d, want 0", got)
	}
	// Occupancy(25) saw both fills complete but must not have retired
	// them: a retiring call at cycle 15 still finds the ready-at-20 fill.
	if got := m.InFlight(15); got != 1 {
		t.Errorf("InFlight(15) after Occupancy probes = %d, want 1 (probe mutated state)", got)
	}
}
