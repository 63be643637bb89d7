package memsys

// TLB is the shared, fully associative, random-replacement TLB of §3.4
// (512 entries by default). "Random" uses a seeded xorshift generator
// so simulations are bit-reproducible.
type TLB struct {
	entries int
	pages   map[int64]int // page number -> slot index
	slots   []int64       // slot index -> page number
	rng     uint64
	Hit     uint64
	Miss    uint64
}

// NewTLB returns a TLB with the given capacity and PRNG seed.
func NewTLB(entries int, seed uint64) *TLB {
	if entries <= 0 {
		panic("memsys: TLB needs positive capacity")
	}
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &TLB{
		entries: entries,
		pages:   make(map[int64]int, entries),
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

// Access looks up a page number, returning true on hit. On a miss the
// page is installed, evicting a random victim if the TLB is full.
func (t *TLB) Access(page int64) bool {
	if _, ok := t.pages[page]; ok {
		t.Hit++
		return true
	}
	t.Miss++
	if len(t.slots) < t.entries {
		t.pages[page] = len(t.slots)
		t.slots = append(t.slots, page)
		return false
	}
	victim := int(t.next() % uint64(t.entries))
	delete(t.pages, t.slots[victim])
	t.slots[victim] = page
	t.pages[page] = victim
	return false
}
