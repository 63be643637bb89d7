package memsys

import (
	"fmt"
	"sort"

	"clustersmt/internal/snap"
)

// This file holds checkpoint (encode/decode) and fork (deep/COW copy)
// support for the per-chip hierarchy. Decoding always targets a freshly
// constructed object of the same geometry, so every size read from the
// stream is validated against the constructed layout: geometry is
// config-derived, never trusted from the payload.
//
// Encoding choices that matter for bit-identity:
//   - Cache tag arrays are written raw (way order, MRU hints, LRU tick),
//     so replacement decisions replay exactly. The layout is dense even
//     though the in-memory array is chunk-lazy (see Cache.EncodeSnap).
//   - The MSHR fill heap is written as its backing array, not re-pushed:
//     two fills with equal ready cycles pop in layout order, so the heap
//     layout itself is state.
//   - TLB slots are written in slot order with the PRNG cursor; the
//     page->slot map is rebuilt from the slots.

// EncodeSnap writes the cache's tag arrays, LRU tick and counters. The
// wire layout is the dense one — every way of every set, then every
// set's MRU hint — so an absent chunk is written as the zero ways and
// hints it reads as, and the bytes do not depend on which chunks happen
// to be allocated.
func (c *Cache) EncodeSnap(w *snap.Writer) {
	w.Int(len(c.chunks) * c.chunkWays)
	for _, ch := range c.chunks {
		for i := 0; i < c.chunkWays; i++ {
			var wy way
			if ch != nil {
				wy = ch.ways[i]
			}
			w.I64(wy.line)
			w.U8(uint8(wy.state))
			w.U64(wy.lru)
		}
	}
	for si := 0; si < c.sets; si++ {
		var m int32
		if ch := c.chunks[si>>chunkShift]; ch != nil {
			m = ch.mru[si&(chunkSets-1)]
		}
		w.U32(uint32(m))
	}
	w.U64(c.tick)
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Evictions)
	w.U64(c.WritebackEvictions)
}

// DecodeSnap overlays state produced by EncodeSnap onto a cache of the
// same geometry. A chunk whose ways and hints are all zero is left
// absent, so a restored cache is as small as the one that was saved and
// re-encodes to the same bytes.
func (c *Cache) DecodeSnap(r *snap.Reader) {
	if n := r.Int(); n != len(c.chunks)*c.chunkWays {
		r.Fail(fmt.Errorf("memsys: %s: snapshot has %d ways, cache has %d", c.name, n, len(c.chunks)*c.chunkWays))
		return
	}
	for ci := range c.chunks {
		c.chunks[ci] = nil
		for i := 0; i < c.chunkWays; i++ {
			wy := way{line: r.I64(), state: LineState(r.U8()), lru: r.U64()}
			if wy.state > Modified {
				r.Fail(fmt.Errorf("memsys: %s: invalid line state %d", c.name, wy.state))
				return
			}
			if wy != (way{}) {
				c.writable(ci).ways[i] = wy
			}
		}
	}
	for si := 0; si < c.sets; si++ {
		m := int32(r.U32())
		if m < 0 || int(m) >= c.assoc {
			r.Fail(fmt.Errorf("memsys: %s: MRU hint %d out of range", c.name, m))
			return
		}
		if m != 0 {
			c.writable(si >> chunkShift).mru[si&(chunkSets-1)] = m
		}
	}
	c.tick = r.U64()
	c.Hits = r.U64()
	c.Misses = r.U64()
	c.Evictions = r.U64()
	c.WritebackEvictions = r.U64()
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

// EncodeSnap writes capacity, the pending map (sorted by line), the raw
// fill-heap array and the counters.
func (m *MSHRFile) EncodeSnap(w *snap.Writer) {
	w.Int(m.cap)
	lines := make([]int64, 0, len(m.pending))
	for l := range m.pending {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.Int(len(lines))
	for _, l := range lines {
		w.I64(l)
		w.I64(m.pending[l])
	}
	w.Int(len(m.fills))
	for _, f := range m.fills {
		w.I64(f.ready)
		w.I64(f.line)
	}
	w.U64(m.Merges)
	w.U64(m.Rejected)
	w.U64(m.Allocated)
}

// DecodeSnap overlays state produced by EncodeSnap onto a fresh file of
// the same capacity.
func (m *MSHRFile) DecodeSnap(r *snap.Reader) {
	if c := r.Int(); c != m.cap {
		r.Fail(fmt.Errorf("memsys: snapshot MSHR capacity %d, file has %d", c, m.cap))
		return
	}
	np := r.Int()
	if np < 0 || np > r.Remaining() {
		r.Fail(fmt.Errorf("memsys: corrupt MSHR pending count %d: %w", np, snap.ErrTruncated))
		return
	}
	for i := 0; i < np; i++ {
		line := r.I64()
		ready := r.I64()
		if r.Err() != nil {
			return
		}
		m.pending[line] = ready
	}
	nf := r.Int()
	if nf < 0 || nf > r.Remaining() {
		r.Fail(fmt.Errorf("memsys: corrupt MSHR fill count %d: %w", nf, snap.ErrTruncated))
		return
	}
	m.fills = m.fills[:0]
	for i := 0; i < nf; i++ {
		m.fills = append(m.fills, fill{ready: r.I64(), line: r.I64()})
	}
	m.Merges = r.U64()
	m.Rejected = r.U64()
	m.Allocated = r.U64()
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

// EncodeSnap writes the slot array in slot order, the PRNG cursor and
// the counters; the page map is rebuilt on decode.
func (t *TLB) EncodeSnap(w *snap.Writer) {
	w.Int(t.entries)
	w.Int(len(t.slots))
	for _, p := range t.slots {
		w.I64(p)
	}
	w.U64(t.rng)
	w.U64(t.Hit)
	w.U64(t.Miss)
}

// DecodeSnap overlays state produced by EncodeSnap onto a fresh TLB of
// the same capacity.
func (t *TLB) DecodeSnap(r *snap.Reader) {
	if e := r.Int(); e != t.entries {
		r.Fail(fmt.Errorf("memsys: snapshot TLB capacity %d, TLB has %d", e, t.entries))
		return
	}
	n := r.Int()
	if n < 0 || n > t.entries {
		r.Fail(fmt.Errorf("memsys: corrupt TLB slot count %d", n))
		return
	}
	t.slots = t.slots[:0]
	for i := 0; i < n; i++ {
		p := r.I64()
		if r.Err() != nil {
			return
		}
		if _, dup := t.pages[p]; dup {
			r.Fail(fmt.Errorf("memsys: duplicate TLB page %d", p))
			return
		}
		t.slots = append(t.slots, p)
		t.pages[p] = i
	}
	rng := r.U64()
	if rng == 0 {
		r.Fail(fmt.Errorf("memsys: zero TLB PRNG state"))
		return
	}
	t.rng = rng
	t.Hit = r.U64()
	t.Miss = r.U64()
}

// Clone returns an independent deep copy of the bank set.
func (b *BankSet) Clone() *BankSet {
	cp := *b
	cp.free = append([]int64(nil), b.free...)
	return &cp
}

// EncodeSnap writes the per-bank next-free cycles and the contention
// counters.
func (b *BankSet) EncodeSnap(w *snap.Writer) {
	w.Int(len(b.free))
	for _, f := range b.free {
		w.I64(f)
	}
	w.U64(b.Conflicts)
	w.U64(b.BusyCycles)
}

// DecodeSnap overlays state produced by EncodeSnap onto a fresh set of
// the same geometry.
func (b *BankSet) DecodeSnap(r *snap.Reader) {
	if n := r.Int(); n != len(b.free) {
		r.Fail(fmt.Errorf("memsys: snapshot has %d banks, set has %d", n, len(b.free)))
		return
	}
	for i := range b.free {
		b.free[i] = r.I64()
	}
	b.Conflicts = r.U64()
	b.BusyCycles = r.U64()
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

// EncodeSnap writes the whole chip hierarchy.
func (c *Chip) EncodeSnap(w *snap.Writer) {
	c.L1.EncodeSnap(w)
	c.L2.EncodeSnap(w)
	c.L1Banks.EncodeSnap(w)
	c.L2Banks.EncodeSnap(w)
	c.TLB.EncodeSnap(w)
	c.MSHR.EncodeSnap(w)
	w.U64(c.TLBMissStalls)
}

// DecodeSnap overlays a chip encoded by EncodeSnap onto a freshly built
// chip of the same configuration.
func (c *Chip) DecodeSnap(r *snap.Reader) {
	c.L1.DecodeSnap(r)
	c.L2.DecodeSnap(r)
	c.L1Banks.DecodeSnap(r)
	c.L2Banks.DecodeSnap(r)
	c.TLB.DecodeSnap(r)
	c.MSHR.DecodeSnap(r)
	c.TLBMissStalls = r.U64()
}
