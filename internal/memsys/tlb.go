package memsys

// TLB is the shared, fully associative, random-replacement TLB of §3.4
// (512 entries by default). "Random" uses a seeded xorshift generator
// so simulations are bit-reproducible.
//
// A page is found through index, a fixed open-addressed table over
// slots: linear probing from the page's hash, at most half full, with
// backward-shift deletion, so a probe stops at the first empty bucket
// and no tombstone ever builds up. It is derived state — the slots
// array and the PRNG cursor are the TLB — and is rebuilt from the
// slots on restore.
type TLB struct {
	entries int
	slots   []int64  // slot index -> page number; capacity entries
	index   []uint32 // open-addressed: slot index + 1, 0 = empty
	shift   uint     // 64 - log2(len(index))
	rng     uint64
	Hit     uint64
	Miss    uint64
}

// NewTLB returns a TLB with the given positive capacity and PRNG seed.
func NewTLB(entries int, seed uint64) *TLB {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	buckets, shift := 2, uint(63)
	for buckets < 2*entries {
		buckets, shift = 2*buckets, shift-1
	}
	return &TLB{
		entries: entries,
		slots:   make([]int64, 0, entries),
		index:   make([]uint32, buckets),
		shift:   shift,
		rng:     seed,
	}
}

func (t *TLB) next() uint64 {
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	return x
}

// home is page's first bucket (Fibonacci hashing).
func (t *TLB) home(page int64) int { return int(uint64(page) * 0x9E3779B97F4A7C15 >> t.shift) }

// find returns the bucket holding page, or the empty bucket that ends
// its probe chain.
func (t *TLB) find(page int64) (b int, ok bool) {
	mask := len(t.index) - 1
	for b = t.home(page); ; b = (b + 1) & mask {
		s := t.index[b]
		if s == 0 {
			return b, false
		}
		if t.slots[s-1] == page {
			return b, true
		}
	}
}

// unindex empties bucket b, shifting back every later entry of the
// chain that b's emptiness would cut off from its home bucket.
func (t *TLB) unindex(b int) {
	mask := len(t.index) - 1
	for j := (b + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may move to b unless its home lies cyclically
		// in (b, j]: probing from there never passes b.
		if h := t.home(t.slots[t.index[j]-1]); (j-h)&mask >= (j-b)&mask {
			t.index[b] = t.index[j]
			b = j
		}
	}
	t.index[b] = 0
}

// Access looks up a page number, returning true on hit. On a miss the
// page is installed, evicting a random victim if the TLB is full.
func (t *TLB) Access(page int64) bool {
	b, ok := t.find(page)
	if ok {
		t.Hit++
		return true
	}
	t.Miss++
	n := len(t.slots)
	if n < t.entries {
		t.slots = t.slots[:n+1]
		t.slots[n] = page
		t.index[b] = uint32(n + 1)
		return false
	}
	victim := int(t.next() % uint64(t.entries))
	vb, _ := t.find(t.slots[victim])
	t.unindex(vb)
	t.slots[victim] = page
	b, _ = t.find(page) // the shift may have moved page's empty bucket
	t.index[b] = uint32(victim + 1)
	return false
}
