package memsys

import (
	"fmt"
	"math"

	"clustersmt/internal/snap"
)

// This file holds checkpoint (XferSnap: each section lists its fields
// once and snap.Xfer runs the list in either direction) and fork
// (deep/COW copy) support for the per-chip hierarchy. Decoding always
// targets a freshly constructed object of the same geometry, so every
// size read from the stream is validated against the constructed
// layout: geometry is config-derived, never trusted from the payload.
//
// Encoding choices that matter for bit-identity:
//   - Cache tag arrays are written raw (way order, MRU hints, LRU tick),
//     so replacement decisions replay exactly. The layout is dense even
//     though the in-memory array is chunk-lazy (see Cache.XferSnap).
//   - The MSHR fill heap is written as its backing array, not re-pushed:
//     two fills with equal ready cycles pop in layout order, so the heap
//     layout itself is state.
//   - TLB slots are written in slot order with the PRNG cursor; the
//     page->slot map is rebuilt from the slots.

// XferSnap transfers the cache's tag arrays, LRU tick and counters;
// decoding overlays a cache of the same geometry. The wire layout is
// the dense one — every way of every set, then every set's MRU hint —
// so an absent chunk is written as the zero ways and hints it reads as,
// and the bytes do not depend on which chunks happen to be allocated.
// Decoding leaves a chunk whose ways and hints are all zero absent, so
// a restored cache is as small as the one that was saved and re-encodes
// to the same bytes.
func (c *Cache) XferSnap(x *snap.Xfer) {
	if x.Const(len(c.chunks)*c.chunkWays, "memsys: "+c.name+" ways"); x.Err() != nil {
		return
	}
	for ci, ch := range c.chunks {
		if x.Decoding() {
			ch, c.chunks[ci] = nil, nil
		}
		for i := 0; i < c.chunkWays; i++ {
			var wy way
			if ch != nil {
				wy = ch.ways[i]
			}
			x.I64(&wy.line)
			x.U8((*uint8)(&wy.state))
			x.U64(&wy.lru)
			if wy.state > Modified {
				x.Fail(fmt.Errorf("memsys: %s: invalid line state %d", c.name, wy.state))
				return
			}
			if x.Decoding() && wy != (way{}) {
				c.writable(ci).ways[i] = wy
			}
		}
	}
	for si := 0; si < c.sets; si++ {
		var m uint32
		if ch := c.chunks[si>>chunkShift]; ch != nil {
			m = uint32(ch.mru[si&(chunkSets-1)])
		}
		if x.U32(&m); int32(m) < 0 || int(m) >= c.assoc {
			x.Fail(fmt.Errorf("memsys: %s: MRU hint %d out of range", c.name, int32(m)))
			return
		}
		if x.Decoding() && m != 0 {
			c.writable(si >> chunkShift).mru[si&(chunkSets-1)] = int32(m)
		}
	}
	x.U64(&c.tick)
	x.U64(&c.Hits)
	x.U64(&c.Misses)
	x.U64(&c.Evictions)
	x.U64(&c.WritebackEvictions)
}

// Clone returns an independent deep copy of the MSHR file, including
// the raw fill-heap layout.
func (m *MSHRFile) Clone() *MSHRFile {
	cp := *m
	cp.pending = make(map[int64]int64, len(m.pending))
	for k, v := range m.pending {
		cp.pending[k] = v
	}
	cp.fills = append(fillHeap(nil), m.fills...)
	return &cp
}

// XferSnap transfers capacity, the pending map (sorted by line), the
// raw fill-heap array and the counters; decoding overlays a fresh file
// of the same capacity.
func (m *MSHRFile) XferSnap(x *snap.Xfer) {
	x.Const(m.cap, "memsys: MSHR capacity")
	snap.Map(x, m.pending, "memsys: MSHR pending", x.I64)
	snap.Slice(x, (*[]fill)(&m.fills), math.MaxInt, "memsys: MSHR fills", func(f *fill) {
		x.I64(&f.ready)
		x.I64(&f.line)
	})
	x.U64(&m.Merges)
	x.U64(&m.Rejected)
	x.U64(&m.Allocated)
}

// Clone returns an independent deep copy of the TLB.
func (t *TLB) Clone() *TLB {
	cp := *t
	cp.pages = make(map[int64]int, len(t.pages))
	for k, v := range t.pages {
		cp.pages[k] = v
	}
	cp.slots = append([]int64(nil), t.slots...)
	return &cp
}

// XferSnap transfers the slot array in slot order, the PRNG cursor and
// the counters; decoding overlays a fresh TLB of the same capacity and
// rebuilds the page map from the slots.
func (t *TLB) XferSnap(x *snap.Xfer) {
	x.Const(t.entries, "memsys: TLB capacity")
	snap.Slice(x, &t.slots, t.entries, "memsys: TLB slots", x.I64)
	if x.Decoding() && x.Err() == nil {
		for i, p := range t.slots {
			if _, dup := t.pages[p]; dup {
				x.Fail(fmt.Errorf("memsys: duplicate TLB page %d", p))
			}
			t.pages[p] = i
		}
	}
	if x.U64(&t.rng); t.rng == 0 {
		x.Fail(fmt.Errorf("memsys: zero TLB PRNG state"))
	}
	x.U64(&t.Hit)
	x.U64(&t.Miss)
}

// Clone returns an independent deep copy of the bank set.
func (b *BankSet) Clone() *BankSet {
	cp := *b
	cp.free = append([]int64(nil), b.free...)
	return &cp
}

// XferSnap transfers the per-bank next-free cycles and the contention
// counters; decoding overlays a fresh set of the same geometry.
func (b *BankSet) XferSnap(x *snap.Xfer) {
	x.Const(len(b.free), "memsys: banks")
	snap.Each(b.free, x.I64)
	x.U64(&b.Conflicts)
	x.U64(&b.BusyCycles)
}

// Fork returns a clone of the chip: the cache tag arrays are shared
// copy-on-write, chunk by chunk (see Cache.Fork); the TLB, MSHRs and
// bank state are small and copied eagerly.
func (c *Chip) Fork() *Chip {
	cp := *c
	cp.L1 = c.L1.Fork()
	cp.L2 = c.L2.Fork()
	cp.L1Banks = c.L1Banks.Clone()
	cp.L2Banks = c.L2Banks.Clone()
	cp.TLB = c.TLB.Clone()
	cp.MSHR = c.MSHR.Clone()
	return &cp
}

// XferSnap transfers the whole chip hierarchy; decoding overlays a
// freshly built chip of the same configuration.
func (c *Chip) XferSnap(x *snap.Xfer) {
	c.L1.XferSnap(x)
	c.L2.XferSnap(x)
	c.L1Banks.XferSnap(x)
	c.L2Banks.XferSnap(x)
	c.TLB.XferSnap(x)
	c.MSHR.XferSnap(x)
	x.U64(&c.TLBMissStalls)
}
