package memsys

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"clustersmt/internal/snap"
)

// denseWays flattens a chunked cache into the dense way array it stands
// for: an absent chunk contributes zero ways.
func denseWays(c *Cache) []way {
	out := make([]way, 0, len(c.chunks)*c.chunkWays)
	for _, ch := range c.chunks {
		if ch == nil {
			out = append(out, make([]way, c.chunkWays)...)
			continue
		}
		out = append(out, ch.ways...)
	}
	return out
}

func presentChunks(c *Cache) []int {
	var out []int
	for i, ch := range c.chunks {
		if ch != nil {
			out = append(out, i)
		}
	}
	return out
}

func snapBytes(enc func(*snap.Writer)) []byte {
	w := snap.NewWriter()
	enc(w)
	return w.Bytes()
}

// xferBytes is snapBytes for a section's XferSnap.
func xferBytes(sec func(*snap.Xfer)) []byte {
	return snapBytes(func(w *snap.Writer) { sec(w.Xfer()) })
}

// cachePair is one chunked cache and the dense oracle driven beside it.
type cachePair struct {
	c *Cache
	d *denseCache
}

func (p cachePair) check(t *testing.T, what string) {
	t.Helper()
	c, d := p.c, p.d
	if c.Hits != d.Hits || c.Misses != d.Misses || c.Evictions != d.Evictions ||
		c.WritebackEvictions != d.WritebackEvictions || c.tick != d.tick {
		t.Fatalf("%s: counters diverge: chunked %d/%d/%d/%d tick %d, dense %d/%d/%d/%d tick %d", what,
			c.Hits, c.Misses, c.Evictions, c.WritebackEvictions, c.tick,
			d.Hits, d.Misses, d.Evictions, d.WritebackEvictions, d.tick)
	}
	if c.Resident() != d.Resident() {
		t.Fatalf("%s: Resident %d, dense %d", what, c.Resident(), d.Resident())
	}
	if !bytes.Equal(xferBytes(c.XferSnap), snapBytes(d.EncodeSnap)) {
		t.Fatalf("%s: XferSnap bytes differ from the dense oracle", what)
	}
}

// TestCacheChunkedMatchesDense drives the chunk-lazy Cache and the dense
// oracle (dense_test.go) with the same seeded random op streams —
// Lookup, FindWay+TouchHit/TouchMiss, Probe, SetState, Insert, and Fork
// followed by writes on either side — and requires every return value,
// victim, counter, Resident() and the encoded bytes to be equal, on
// a one-chunk cache, the L1 (8 chunks) and the L2 (64 chunks).
func TestCacheChunkedMatchesDense(t *testing.T) {
	geoms := []struct{ sizeKB, line, assoc int }{
		{1, 64, 2},    // 8 sets: smaller than one chunk
		{64, 64, 2},   // the L1: 512 sets, 8 chunks
		{1024, 64, 4}, // the L2: 4096 sets, 64 chunks
		{96, 64, 3},   // 512 sets, non-power-of-two associativity
	}
	for gi, g := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%dKB/%dway/seed%d", g.sizeKB, g.assoc, seed)
			rng := rand.New(rand.NewSource(seed*100 + int64(gi)))
			family := []cachePair{{
				NewCache("c", g.sizeKB, g.line, g.assoc),
				newDenseCache("d", g.sizeKB, g.line, g.assoc),
			}}
			sets := family[0].c.sets
			// Lines come from a few hot sets (evictions, repeated hits)
			// and from a sparse scatter (first fills of new chunks).
			hot := make([]int64, 6)
			for i := range hot {
				hot[i] = int64(rng.Intn(sets))
			}
			pick := func() int64 {
				if rng.Intn(4) > 0 {
					set := hot[rng.Intn(len(hot))]
					return (set + int64(rng.Intn(2*g.assoc+1))*int64(sets)) * int64(g.line)
				}
				return int64(rng.Intn(16*sets)) * int64(g.line)
			}
			states := []LineState{Invalid, Shared, Modified}
			for op := 0; op < 6000; op++ {
				p := family[rng.Intn(len(family))]
				line := pick()
				what := fmt.Sprintf("%s op %d line %#x", name, op, line)
				switch k := rng.Intn(20); {
				case k < 5:
					if a, b := p.c.Lookup(line), p.d.Lookup(line); a != b {
						t.Fatalf("%s: Lookup %v, dense %v", what, a, b)
					}
				case k < 9:
					wi, dwi := p.c.FindWay(line), p.d.FindWay(line)
					if wi != dwi {
						t.Fatalf("%s: FindWay %d, dense %d", what, wi, dwi)
					}
					if wi < 0 {
						p.c.TouchMiss()
						p.d.TouchMiss()
					} else if a, b := p.c.TouchHit(wi), p.d.TouchHit(dwi); a != b {
						t.Fatalf("%s: TouchHit %v, dense %v", what, a, b)
					}
				case k < 11:
					if a, b := p.c.Probe(line), p.d.Probe(line); a != b {
						t.Fatalf("%s: Probe %v, dense %v", what, a, b)
					}
				case k < 13:
					st := states[rng.Intn(len(states))]
					p.c.SetState(line, st)
					p.d.SetState(line, st)
				case k < 19:
					st := states[1+rng.Intn(2)]
					if a, b := p.c.Insert(line, st), p.d.Insert(line, st); a != b {
						t.Fatalf("%s: Insert victim %+v, dense %+v", what, a, b)
					}
				default:
					if len(family) < 5 {
						family = append(family, cachePair{p.c.Fork(), p.d.Fork()})
					}
				}
				if op%500 == 0 {
					for i, q := range family {
						q.check(t, fmt.Sprintf("%s member %d", what, i))
					}
				}
			}
			for i, q := range family {
				what := fmt.Sprintf("%s end member %d", name, i)
				q.check(t, what)
				// Decode → encode returns the same bytes, into no more
				// chunks than the source holds.
				enc := xferBytes(q.c.XferSnap)
				back := NewCache("c", g.sizeKB, g.line, g.assoc)
				r := snap.NewReader(enc)
				back.XferSnap(r.Xfer())
				if r.Err() != nil || r.Remaining() != 0 {
					t.Fatalf("%s: decode: err %v, %d bytes left", what, r.Err(), r.Remaining())
				}
				if !bytes.Equal(xferBytes(back.XferSnap), enc) {
					t.Fatalf("%s: decode→encode changed the bytes", what)
				}
				if got, src := len(presentChunks(back)), len(presentChunks(q.c)); got > src {
					t.Fatalf("%s: decoded cache holds %d chunks, source %d", what, got, src)
				}
			}
		}
	}
}

// TestCacheForkSharesUntouchedChunks: a fork copies no chunk; the first
// write after it copies exactly the chunk written, on whichever side
// writes, and the other side never sees the write.
func TestCacheForkSharesUntouchedChunks(t *testing.T) {
	parent := NewCache("L2", 1024, 64, 4) // 4096 sets, 64 chunks
	line := func(chunk int) int64 { return int64(chunk*chunkSets) * 64 }
	for _, ci := range []int{0, 7, 20, 41, 63} {
		parent.Insert(line(ci), Shared)
	}
	if got := presentChunks(parent); fmt.Sprint(got) != "[0 7 20 41 63]" {
		t.Fatalf("present chunks %v after five fills", got)
	}
	child := parent.Fork()
	private := func() (n int) {
		for i := range parent.chunks {
			if parent.chunks[i] != child.chunks[i] {
				n++
			}
		}
		return n
	}
	if n := private(); n != 0 {
		t.Fatalf("%d chunks private right after Fork, want 0", n)
	}
	// Reads and misses copy nothing.
	child.Probe(line(7))
	child.Lookup(line(8))
	child.SetState(line(9), Modified)
	parent.FindWay(line(20))
	if n := private(); n != 0 {
		t.Fatalf("%d chunks private after read-only traffic, want 0", n)
	}
	child.SetState(line(7), Modified)
	if n := private(); n != 1 {
		t.Fatalf("%d chunks private after one write in the child, want 1", n)
	}
	if parent.Probe(line(7)) != Shared || child.Probe(line(7)) != Modified {
		t.Fatal("child's write leaked into the parent (or was lost)")
	}
	// The parent gave up ownership at the fork too: its first write
	// copies, so the child keeps reading the pre-fork chunk.
	parent.Lookup(line(20))
	if n := private(); n != 2 {
		t.Fatalf("%d chunks private after one more write in the parent, want 2", n)
	}
	// A first fill of a new chunk is private by construction.
	child.Insert(line(30), Shared)
	if parent.chunks[30] != nil || child.chunks[30] == nil {
		t.Fatal("first fill after a fork must allocate in the writer only")
	}
	// Writing an owned chunk again copies nothing further.
	before := child.chunks[7]
	child.Lookup(line(7))
	if child.chunks[7] != before {
		t.Fatal("second write to an owned chunk copied it again")
	}
}

// TestCacheDecodeZeroChunks starts from bytes in which untouched chunks
// are explicit runs of zero ways (what the dense layout always wrote):
// decoding leaves those chunks absent and re-encoding returns the same
// bytes. A crafted MRU hint inside an otherwise all-zero chunk is kept
// too, by materialising that one chunk.
func TestCacheDecodeZeroChunks(t *testing.T) {
	d := newDenseCache("d", 1024, 64, 4)
	for _, set := range []int64{3, 3 + 4096, 200, 201, 4000} { // chunks 0, 3, 62
		d.Insert(set*64, Modified)
	}
	d.Lookup(3 * 64)
	in := snapBytes(d.EncodeSnap)

	decode := func(b []byte) *Cache {
		t.Helper()
		c := NewCache("c", 1024, 64, 4)
		r := snap.NewReader(b)
		c.XferSnap(r.Xfer())
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("decode: err %v, %d bytes left", r.Err(), r.Remaining())
		}
		return c
	}
	c := decode(in)
	if got := presentChunks(c); fmt.Sprint(got) != "[0 3 62]" {
		t.Fatalf("present chunks after decode %v, want [0 3 62]", got)
	}
	if !bytes.Equal(xferBytes(c.XferSnap), in) {
		t.Fatal("decode→encode changed the bytes")
	}
	if c.Probe(200*64) != Modified || c.Probe(500*64) != Invalid || c.Resident() != 5 {
		t.Fatal("decoded cache answers differently from the encoded one")
	}

	// Set 1000 lives in chunk 15, which holds no line: give it hint 2.
	crafted := append([]byte(nil), in...)
	const wayBytes, ways = 17, 4096 * 4
	crafted[8+ways*wayBytes+1000*4] = 2
	c = decode(crafted)
	if got := presentChunks(c); fmt.Sprint(got) != "[0 3 15 62]" {
		t.Fatalf("present chunks after crafted decode %v, want [0 3 15 62]", got)
	}
	if !bytes.Equal(xferBytes(c.XferSnap), crafted) {
		t.Fatal("decode→encode dropped an MRU hint of an all-zero chunk")
	}
}

// FuzzCacheSnap feeds arbitrary bytes to Cache.XferSnap over a fresh
// four-chunk cache: the decode never panics, and one that succeeds
// re-encodes to exactly the bytes it consumed into no chunk it did not
// need — a present chunk always holds a non-zero way or hint. Seeded
// from a cache populated in two of its chunks.
func FuzzCacheSnap(f *testing.F) {
	fresh := func() *Cache { return NewCache("c", 32, 64, 2) } // 256 sets
	c := fresh()
	for _, set := range []int64{1, 1 + 256, 63, 130, 131} { // chunks 0 and 2
		c.Insert(set*64, Modified)
	}
	c.Lookup(130 * 64)
	if got := presentChunks(c); fmt.Sprint(got) != "[0 2]" {
		f.Fatalf("seed cache holds chunks %v, want [0 2]", got)
	}
	seed := xferBytes(c.XferSnap)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(xferBytes(fresh().XferSnap))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, r := fresh(), snap.NewReader(b)
		if d.XferSnap(r.Xfer()); r.Err() != nil {
			return
		}
		if !bytes.Equal(xferBytes(d.XferSnap), b[:len(b)-r.Remaining()]) {
			t.Fatal("decode→encode changed the bytes")
		}
		for ci, ch := range d.chunks {
			if ch != nil && !slices.ContainsFunc(ch.ways, func(w way) bool { return w != way{} }) &&
				!slices.ContainsFunc(ch.mru[:], func(m int32) bool { return m != 0 }) {
				t.Fatalf("chunk %d is present and all zero", ci)
			}
		}
	})
}
