package memsys

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"clustersmt/internal/snap"
)

// mapTLB is the TLB by definition: a page→slot map beside the slot
// array, with the same seeded victim choice. TLB's open-addressed index
// is driven against it.
type mapTLB struct {
	entries   int
	pages     map[int64]int
	slots     []int64
	rng       uint64
	Hit, Miss uint64
}

func newMapTLB(entries int, seed uint64) *mapTLB {
	return &mapTLB{entries: entries, pages: make(map[int64]int), rng: seed}
}

func (t *mapTLB) Access(page int64) bool {
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
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	victim := int(x % uint64(t.entries))
	delete(t.pages, t.slots[victim])
	t.slots[victim] = page
	t.pages[page] = victim
	return false
}

// checkIndex fails unless t's index holds exactly its slots, each in
// reach of its home bucket (no empty bucket between them), and reports
// how many entries sit past the table's end from their home.
func checkIndex(t *testing.T, what string, tlb *TLB) (wrapped int) {
	t.Helper()
	mask := len(tlb.index) - 1
	used := 0
	for b, s := range tlb.index {
		if s == 0 {
			continue
		}
		used++
		if int(s) > len(tlb.slots) {
			t.Fatalf("%s: bucket %d names slot %d of %d", what, b, s-1, len(tlb.slots))
		}
		h := tlb.home(tlb.slots[s-1])
		for j := h; j != b; j = (j + 1) & mask {
			if tlb.index[j] == 0 {
				t.Fatalf("%s: page %d at bucket %d, cut off from its home %d by empty bucket %d", what, tlb.slots[s-1], b, h, j)
			}
		}
		if b < h {
			wrapped++
		}
	}
	if used != len(tlb.slots) {
		t.Fatalf("%s: index holds %d pages, slots %d", what, used, len(tlb.slots))
	}
	for i, p := range tlb.slots {
		if b, ok := tlb.find(p); !ok || int(tlb.index[b]) != i+1 {
			t.Fatalf("%s: page %d of slot %d not found through the index", what, p, i)
		}
	}
	return wrapped
}

// TestTLBMapDifferential drives TLB and the map TLB with the same
// seeded page streams: every hit or miss, the slot array (so the victim
// order), the PRNG cursor and both counters must agree after every
// access, and the index must hold exactly the slots (checked after
// every access below 64 entries, every 64th above). One stream per
// capacity draws only pages whose home is one of the table's last two
// buckets, so probe chains wrap around its end and evictions unlink
// entries across the wrap. Midway, each stream also continues on a
// Clone and on a decoded snapshot, which must re-encode to the same
// bytes.
func TestTLBMapDifferential(t *testing.T) {
	for _, entries := range []int{1, 3, 4, 8, 37, 512} {
		for _, wrap := range []bool{false, true} {
			seed := uint64(entries)*0x2545F4914F6CDD1D + 1
			fast, ref := NewTLB(entries, seed), newMapTLB(entries, seed)
			var pool []int64
			if wrap {
				last := len(fast.index) - 2
				for p := int64(0); len(pool) < 3*entries+2; p++ {
					if fast.home(p) >= last {
						pool = append(pool, p)
					}
				}
			}
			rng := rand.New(rand.NewSource(int64(entries)))
			wrapped := 0
			for op := 0; op < 20_000; op++ {
				var page int64
				if wrap {
					page = pool[rng.Intn(len(pool))]
				} else {
					page = int64(rng.Intn(3*entries+2)) - int64(entries)
				}
				what := fmt.Sprintf("entries %d wrap %v op %d page %d", entries, wrap, op, page)
				if a, b := fast.Access(page), ref.Access(page); a != b {
					t.Fatalf("%s: hit %v, map %v", what, a, b)
				}
				if !slices.Equal(fast.slots, ref.slots) || fast.rng != ref.rng || fast.Hit != ref.Hit || fast.Miss != ref.Miss {
					t.Fatalf("%s: slots %v rng %#x %d/%d, map %v rng %#x %d/%d", what,
						fast.slots, fast.rng, fast.Hit, fast.Miss, ref.slots, ref.rng, ref.Hit, ref.Miss)
				}
				if entries < 64 || op%64 == 0 {
					wrapped += checkIndex(t, what, fast)
				}
				switch op {
				case 10_000:
					fast = fast.Clone()
				case 15_000:
					fast = roundTripTLB(t, what, fast)
				}
			}
			if ref.Hit == 0 || ref.Miss <= uint64(entries) || (wrap && entries > 1 && wrapped == 0) {
				t.Errorf("entries %d wrap %v: vacuous stream: %d hits, %d misses, %d wrapped entries seen",
					entries, wrap, ref.Hit, ref.Miss, wrapped)
			}
		}
	}
}

// roundTripTLB encodes tlb, decodes it into a fresh TLB of its capacity
// and checks the copy re-encodes to the same bytes.
func roundTripTLB(t *testing.T, what string, tlb *TLB) *TLB {
	t.Helper()
	w := snap.NewWriter()
	tlb.XferSnap(w.Xfer())
	got := NewTLB(tlb.entries, 1)
	r := snap.NewReader(w.Bytes())
	if got.XferSnap(r.Xfer()); r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("%s: decode: %v, %d bytes left", what, r.Err(), r.Remaining())
	}
	w2 := snap.NewWriter()
	got.XferSnap(w2.Xfer())
	if !slices.Equal(w.Bytes(), w2.Bytes()) {
		t.Fatalf("%s: decoded TLB re-encodes differently", what)
	}
	return got
}
