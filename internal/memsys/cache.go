// Package memsys implements the per-chip memory hierarchy mechanics of
// §3.4/Table 3: banked set-associative L1 and L2 tag arrays with LRU
// replacement and MSI line states, a fully associative random-
// replacement TLB, MSHRs bounding outstanding loads, and bank-occupancy
// contention. Cross-chip coherence lives in package coherence.
//
// The caches track tags and states only — data values come from the
// functional front end — so "reading" a line means timing its access.
package memsys

import "fmt"

// LineState is the MSI coherence state of a cached line.
type LineState uint8

// MSI states.
const (
	Invalid LineState = iota
	Shared
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("LineState(%d)", uint8(s))
}

type way struct {
	line  int64 // line-aligned base address; valid only if state != Invalid
	state LineState
	lru   uint64 // larger = more recently used
}

// chunkSets is the granule of the tag array: a chunk covers this many
// consecutive sets (a whole cache smaller than that is one chunk).
const (
	chunkSets  = 1 << chunkShift
	chunkShift = 6
)

// chunk is one granule of the tag array, allocated when a line is first
// filled into it. An absent chunk reads as chunkSets sets of Invalid,
// never-touched ways with MRU hint 0 — exactly what a zeroed chunk
// holds — so allocating one changes no answer.
type chunk struct {
	// owner is the ownership token of the one cache that may write this
	// chunk in place; every other cache reaching it (a forked twin)
	// copies it first. See Cache.Fork.
	owner *token
	ways  []way // min(sets, chunkSets)*assoc, row-major by set
	// mru holds, per set, the way index last hit or filled — checked
	// first on every lookup so repeated touches of the same line skip
	// the set walk. Purely a hint: a stale value only costs the walk.
	mru [chunkSets]int32
}

// token is a chunk-ownership identity; only its address matters.
type token struct{ _ byte }

// Cache is a set-associative tag array. Addresses passed in must be
// line-aligned ("line addresses"). Geometries are powers of two so set
// selection is a shift and a mask (enforced at construction).
type Cache struct {
	name      string
	sets      int
	assoc     int
	lineBytes int64
	lineShift uint  // log2(lineBytes)
	setMask   int64 // sets - 1
	// chunks is the tag array: chunk i covers sets [i*chunkSets,
	// (i+1)*chunkSets); nil until a line is first filled there. A
	// simulation touches a small part of a large L2, so construction,
	// Fork and the live heap cost what was touched, not the geometry.
	chunks    []*chunk
	chunkWays int // ways per chunk
	tick      uint64

	// own marks the chunks this cache may write in place (chunk.owner ==
	// own). The table itself is always private; scalar fields (tick,
	// stats) are copied by value at Fork time and never shared.
	own *token

	// Stats.
	Hits, Misses, Evictions, WritebackEvictions uint64
}

// log2OfPow2 returns log2(v), panicking unless v is a positive power
// of two.
func log2OfPow2(what string, v int64) uint {
	if v <= 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("memsys: %s must be a positive power of two, got %d", what, v))
	}
	n := uint(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// NewCache builds a cache with the given geometry. sizeKB must divide
// evenly into sets of assoc lines, and both the line size and the
// resulting set count must be powers of two.
func NewCache(name string, sizeKB, lineBytes, assoc int) *Cache {
	lines := sizeKB * 1024 / lineBytes
	if lines%assoc != 0 {
		panic(fmt.Sprintf("memsys: %s: %dKB/%dB/%d-way does not form whole sets", name, sizeKB, lineBytes, assoc))
	}
	sets := lines / assoc
	c := &Cache{
		name:      name,
		sets:      sets,
		assoc:     assoc,
		lineBytes: int64(lineBytes),
		lineShift: log2OfPow2(name+" line size", int64(lineBytes)),
		setMask:   int64(sets - 1),
		chunks:    make([]*chunk, (sets+chunkSets-1)/chunkSets),
		chunkWays: min(sets, chunkSets) * assoc,
		own:       new(token),
	}
	log2OfPow2(name+" set count", int64(sets))
	return c
}

// Fork returns a copy-on-write clone of the cache: the clone gets its
// own chunk table pointing at c's chunks, and both sides take a fresh
// ownership token, so neither owns a chunk that exists now — whichever
// side first writes one copies it (writable). A fork therefore costs the
// table, and afterwards one chunk per chunk written. Counters and the
// LRU tick diverge freely — they live in the struct, which is copied by
// value here.
func (c *Cache) Fork() *Cache {
	c.own = new(token)
	cp := *c
	cp.chunks = append([]*chunk(nil), c.chunks...)
	cp.own = new(token)
	return &cp
}

// writable returns chunk ci ready to be written in place: allocated if
// absent, copied if still shared with a forked twin.
func (c *Cache) writable(ci int) *chunk {
	ch := c.chunks[ci]
	if ch != nil && ch.owner == c.own {
		return ch
	}
	if ch == nil {
		ch = &chunk{ways: make([]way, c.chunkWays)}
	} else {
		ch = &chunk{ways: append([]way(nil), ch.ways...), mru: ch.mru}
	}
	ch.owner = c.own
	c.chunks[ci] = ch
	return ch
}

// Sets returns the number of sets (diagnostics).
func (c *Cache) Sets() int { return c.sets }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int64 { return c.lineBytes }

// LineAddr converts a byte address to its line address.
func (c *Cache) LineAddr(addr int64) int64 { return addr &^ (c.lineBytes - 1) }

// setIndex returns the set number holding line.
func (c *Cache) setIndex(line int64) int {
	return int((line >> c.lineShift) & c.setMask)
}

// find locates line without side effects: its set index and the way
// within that set holding it, or way -1 when it is not resident (which
// includes every line of an absent chunk).
func (c *Cache) find(line int64) (si, i int) {
	si = c.setIndex(line)
	ch := c.chunks[si>>chunkShift]
	if ch == nil {
		return si, -1
	}
	s := si & (chunkSets - 1)
	set := ch.ways[s*c.assoc : (s+1)*c.assoc]
	if w := &set[ch.mru[s]]; w.state != Invalid && w.line == line {
		return si, int(ch.mru[s])
	}
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.line == line {
			return si, i
		}
	}
	return si, -1
}

// at returns the index, within its chunk's ways, of way i of set si.
func (c *Cache) at(si, i int) int { return (si&(chunkSets-1))*c.assoc + i }

// touch marks way i of set si most recently used and returns its state.
func (c *Cache) touch(si, i int) LineState {
	ch := c.writable(si >> chunkShift)
	s := si & (chunkSets - 1)
	w := &ch.ways[s*c.assoc+i]
	w.lru = c.tick
	ch.mru[s] = int32(i)
	return w.state
}

// Lookup returns the state of line, counting a hit or miss, and updates
// LRU on hit.
func (c *Cache) Lookup(line int64) LineState {
	c.tick++
	si, i := c.find(line)
	if i < 0 {
		c.Misses++
		return Invalid
	}
	c.Hits++
	return c.touch(si, i)
}

// FindWay returns the absolute way index (set*assoc + way) holding line,
// or -1 — without touching stats, LRU or the MRU hint. Together with
// TouchHit / TouchMiss it lets a caller that needs an early residence
// check (the load path's MSHR gate) walk the set once instead of probing
// and then looking up.
func (c *Cache) FindWay(line int64) int {
	si, i := c.find(line)
	if i < 0 {
		return -1
	}
	return si*c.assoc + i
}

// TouchHit replays exactly what Lookup does on a hit at the way index
// returned by FindWay: one tick, the LRU update and the Hits count. The
// cache must not have been mutated since the FindWay call.
func (c *Cache) TouchHit(wi int) LineState {
	c.tick++
	c.Hits++
	return c.touch(wi/c.assoc, wi%c.assoc)
}

// TouchMiss replays what Lookup does on a miss: one tick and the Misses
// count. It touches only value fields, never a chunk.
func (c *Cache) TouchMiss() {
	c.tick++
	c.Misses++
}

// Probe returns the state of line without touching LRU or stats.
func (c *Cache) Probe(line int64) LineState {
	si, i := c.find(line)
	if i < 0 {
		return Invalid
	}
	return c.chunks[si>>chunkShift].ways[c.at(si, i)].state
}

// SetState changes the state of a resident line; it is a no-op if the
// line is not resident. Setting Invalid invalidates.
func (c *Cache) SetState(line int64, st LineState) {
	if si, i := c.find(line); i >= 0 {
		c.writable(si >> chunkShift).ways[c.at(si, i)].state = st
	}
}

// Victim describes a line displaced by Insert.
type Victim struct {
	Line    int64
	State   LineState
	Evicted bool
}

// Insert places line with the given state, evicting the LRU way if the
// set is full. If the line is already resident its state is updated in
// place (no eviction).
func (c *Cache) Insert(line int64, st LineState) Victim {
	c.tick++
	si := c.setIndex(line)
	ch := c.writable(si >> chunkShift)
	s := si & (chunkSets - 1)
	set := ch.ways[s*c.assoc : (s+1)*c.assoc]
	var free, lruIdx = -1, 0
	for i := range set {
		w := &set[i]
		if w.state != Invalid && w.line == line {
			w.state = st
			w.lru = c.tick
			ch.mru[s] = int32(i)
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
		ch.mru[s] = int32(free)
		return Victim{}
	}
	v := Victim{Line: set[lruIdx].line, State: set[lruIdx].state, Evicted: true}
	c.Evictions++
	if v.State == Modified {
		c.WritebackEvictions++
	}
	set[lruIdx] = way{line: line, state: st, lru: c.tick}
	ch.mru[s] = int32(lruIdx)
	return v
}

// Resident reports how many lines are currently valid (testing aid).
func (c *Cache) Resident() int {
	n := 0
	for _, ch := range c.chunks {
		if ch == nil {
			continue
		}
		for i := range ch.ways {
			if ch.ways[i].state != Invalid {
				n++
			}
		}
	}
	return n
}
