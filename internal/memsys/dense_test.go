package memsys

import (
	"math/bits"

	"clustersmt/internal/snap"
)

// denseCache is the tag array as it was before the chunk-lazy table:
// one dense ways slice allocated at construction and copied whole by
// own() on the first write after a Fork. It is kept here, unchanged, as
// the oracle the chunked Cache is driven against.
//
// denseCache is a set-associative tag array. Addresses passed in must be
// line-aligned ("line addresses"). Geometries are powers of two so set
// selection is a shift and a mask (enforced by config.MemConfig.Validate).
type denseCache struct {
	name      string
	sets      int
	assoc     int
	lineBytes int64
	lineShift uint  // log2(lineBytes)
	setMask   int64 // sets - 1
	ways      []way // sets*assoc, row-major by set
	// mru holds, per set, the way index last hit or filled — checked
	// first on every lookup so repeated touches of the same line skip
	// the set walk. Purely a hint: a stale value only costs the walk.
	mru  []int32
	tick uint64

	// cow marks the tag arrays (ways, mru) as shared with a forked twin;
	// the first mutating method privatizes them via own(). Scalar fields
	// (tick, stats) are copied by value at Fork time and never shared.
	cow bool

	// Stats.
	Hits, Misses, Evictions, WritebackEvictions uint64
}

// newDenseCache builds a cache with the given geometry, one that
// config.MemConfig.Validate accepted (see NewCache).
func newDenseCache(name string, sizeKB, lineBytes, assoc int) *denseCache {
	sets := sizeKB * 1024 / lineBytes / assoc
	return &denseCache{
		name:      name,
		sets:      sets,
		assoc:     assoc,
		lineBytes: int64(lineBytes),
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setMask:   int64(sets - 1),
		ways:      make([]way, sets*assoc),
		mru:       make([]int32, sets),
	}
}

// Fork returns a copy-on-write clone of the cache: the clone shares the
// tag arrays with c until either side first mutates, at which point the
// mutator copies them (own). Counters and the LRU tick diverge freely —
// they live in the struct, which is copied by value here.
func (c *denseCache) Fork() *denseCache {
	c.cow = true
	cp := *c
	return &cp
}

// own privatizes the tag arrays before a mutation when they are still
// shared with a forked twin.
func (c *denseCache) own() {
	if !c.cow {
		return
	}
	c.ways = append([]way(nil), c.ways...)
	c.mru = append([]int32(nil), c.mru...)
	c.cow = false
}

// setIndex returns the set number holding line.
func (c *denseCache) setIndex(line int64) int {
	return int((line >> c.lineShift) & c.setMask)
}

func (c *denseCache) set(line int64) []way {
	s := c.setIndex(line)
	return c.ways[s*c.assoc : (s+1)*c.assoc]
}

// Lookup returns the state of line, counting a hit or miss, and updates
// LRU on hit.
func (c *denseCache) Lookup(line int64) LineState {
	c.own()
	c.tick++
	si := c.setIndex(line)
	base := si * c.assoc
	if w := &c.ways[base+int(c.mru[si])]; w.state != Invalid && w.line == line {
		w.lru = c.tick
		c.Hits++
		return w.state
	}
	set := c.ways[base : base+c.assoc]
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.line == line {
			w.lru = c.tick
			c.mru[si] = int32(i)
			c.Hits++
			return w.state
		}
	}
	c.Misses++
	return Invalid
}

// FindWay returns the absolute way-array index holding line, or -1 —
// without touching stats, LRU or the MRU hint. Together with TouchHit /
// TouchMiss it lets a caller that needs an early residence check (the
// load path's MSHR gate) walk the set once instead of probing and then
// looking up.
func (c *denseCache) FindWay(line int64) int {
	si := c.setIndex(line)
	base := si * c.assoc
	if w := &c.ways[base+int(c.mru[si])]; w.state != Invalid && w.line == line {
		return base + int(c.mru[si])
	}
	set := c.ways[base : base+c.assoc]
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.line == line {
			return base + i
		}
	}
	return -1
}

// TouchHit replays exactly what Lookup does on a hit at the way index
// returned by FindWay: one tick, the LRU update and the Hits count. The
// cache must not have been mutated since the FindWay call.
func (c *denseCache) TouchHit(wi int) LineState {
	c.own()
	c.tick++
	w := &c.ways[wi]
	w.lru = c.tick
	c.mru[wi/c.assoc] = int32(wi % c.assoc)
	c.Hits++
	return w.state
}

// TouchMiss replays what Lookup does on a miss: one tick and the Misses
// count. It touches only value fields, so no own() is needed.
func (c *denseCache) TouchMiss() {
	c.tick++
	c.Misses++
}

// Probe returns the state of line without touching LRU or stats.
func (c *denseCache) Probe(line int64) LineState {
	set := c.set(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.line == line {
			return w.state
		}
	}
	return Invalid
}

// SetState changes the state of a resident line; it is a no-op if the
// line is not resident. Setting Invalid invalidates.
func (c *denseCache) SetState(line int64, st LineState) {
	c.own()
	set := c.set(line)
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.line == line {
			w.state = st
			return
		}
	}
}

// Insert places line with the given state, evicting the LRU way if the
// set is full. If the line is already resident its state is updated in
// place (no eviction).
func (c *denseCache) Insert(line int64, st LineState) Victim {
	c.own()
	c.tick++
	si := c.setIndex(line)
	set := c.ways[si*c.assoc : (si+1)*c.assoc]
	var free, lruIdx = -1, 0
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.line == line {
			w.state = st
			w.lru = c.tick
			c.mru[si] = int32(i)
			return Victim{}
		}
		if w.state == Invalid {
			free = i
		} else if set[i].lru < set[lruIdx].lru || set[lruIdx].state == Invalid {
			lruIdx = i
		}
	}
	if free >= 0 {
		set[free] = way{line: line, state: st, lru: c.tick}
		c.mru[si] = int32(free)
		return Victim{}
	}
	v := Victim{Line: set[lruIdx].line, State: set[lruIdx].state, Evicted: true}
	c.Evictions++
	if v.State == Modified {
		c.WritebackEvictions++
	}
	set[lruIdx] = way{line: line, state: st, lru: c.tick}
	c.mru[si] = int32(lruIdx)
	return v
}

// Resident reports how many lines are currently valid (testing aid).
func (c *denseCache) Resident() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].state != Invalid {
			n++
		}
	}
	return n
}

// EncodeSnap writes the cache's tag arrays, LRU tick and counters.
func (c *denseCache) EncodeSnap(w *snap.Writer) {
	w.Int(len(c.ways))
	for i := range c.ways {
		wy := &c.ways[i]
		w.I64(wy.line)
		w.U8(uint8(wy.state))
		w.U64(wy.lru)
	}
	for _, m := range c.mru {
		w.U32(uint32(m))
	}
	w.U64(c.tick)
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Evictions)
	w.U64(c.WritebackEvictions)
}
