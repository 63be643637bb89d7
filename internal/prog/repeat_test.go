package prog_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"clustersmt/internal/interp"
	"clustersmt/internal/prog"
	"clustersmt/internal/snap"
)

// loadedPages is the memory LoadImage builds from p, as the bytes of
// its checkpoint section (every page, in page order).
func loadedPages(p *prog.Program) []byte {
	mem := interp.NewMemory()
	mem.LoadImage(p)
	w := snap.NewWriter()
	mem.XferSnap(w.Xfer())
	return w.Bytes()
}

type word struct {
	addr int64
	v    uint64
}

func runWords(im *prog.Image) []word {
	var out []word
	im.Runs(func(addr int64, vals []uint64) {
		for k, v := range vals {
			out = append(out, word{addr + int64(k)*prog.WordSize, v})
		}
	})
	return out
}

// TestImageRepeatMatchesSetRun is the differential for repeated
// extents: two builders lay out the same globals — a seeded number of
// short ones first, so the array starts anywhere within a bitmap word,
// then the array, then more globals and a constant — one declaring the
// array with GlobalRepeat, the other with every word set through
// GlobalWords. Lengths and periods are seeded, periods longer than the
// array and last periods cut short included, and both programs then get
// the same Sets around the array. They must agree on Get over the data
// segment plus and minus 1 MB, Len, the words Runs yields and the pages
// LoadImage produces; their digests differ, because the two images are
// built differently.
func TestImageRepeatMatchesSetRun(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Int63n(6000)
		period := make([]uint64, 1+rng.Intn(300))
		for k := range period {
			period[k] = rng.Uint64() % 4 // zeros are common
		}
		full := make([]uint64, n)
		for k := range full {
			full[k] = period[k%len(period)]
		}
		lead := make([][]uint64, rng.Intn(4))
		for i := range lead {
			lead[i] = make([]uint64, rng.Intn(100))
		}
		build := func(repeat bool) *prog.Program {
			b := prog.NewBuilder(fmt.Sprintf("repeat-%v", repeat))
			for i, vals := range lead {
				b.GlobalWords(fmt.Sprintf("lead%d", i), vals)
			}
			if repeat {
				b.GlobalRepeat("arr", n, period)
			} else {
				b.GlobalWords("arr", full)
			}
			b.Global("tail", 100)
			b.Fli(1, 2.5)
			b.Halt()
			return b.MustBuild()
		}
		ref, got := build(false), build(true)
		if ref.SymbolAddr("arr") != got.SymbolAddr("arr") || ref.DataEnd != got.DataEnd {
			t.Fatalf("trial %d: layouts differ", trial)
		}
		arr, tail := got.SymbolAddr("arr"), got.SymbolAddr("tail")
		for i, k := 0, rng.Intn(50); i < k; i++ {
			a, v := tail+rng.Int63n(100)*prog.WordSize, rng.Uint64()
			ref.Init.Set(a, v)
			got.Init.Set(a, v)
		}
		if len(lead) > 0 && len(lead[len(lead)-1]) > 0 { // the word right below the array
			ref.Init.Set(arr-prog.WordSize, 9)
			got.Init.Set(arr-prog.WordSize, 9)
		}

		if got.Init.Len() != ref.Init.Len() {
			t.Fatalf("trial %d: Len %d, SetRun gives %d", trial, got.Init.Len(), ref.Init.Len())
		}
		for a := int64(prog.DataBase) - 1<<20; a < got.DataEnd+1<<20; a += prog.WordSize {
			rv, rok := ref.Init.Get(a)
			gv, gok := got.Init.Get(a)
			if rv != gv || rok != gok {
				t.Fatalf("trial %d (%d words, period %d): word %#x = %d (present %v), SetRun gives %d (present %v)",
					trial, n, len(period), a, gv, gok, rv, rok)
			}
		}
		if r, g := runWords(&ref.Init), runWords(&got.Init); !reflect.DeepEqual(r, g) {
			t.Fatalf("trial %d: Runs differ: %d words vs %d", trial, len(g), len(r))
		}
		if !bytes.Equal(loadedPages(ref), loadedPages(got)) {
			t.Fatalf("trial %d: LoadImage pages differ", trial)
		}
		if ref.Fingerprint() == got.Fingerprint() {
			t.Fatalf("trial %d: a repeated extent hashes like the same words set one by one", trial)
		}
	}
}

// TestImageRepeatRunsAliasPeriod checks that Runs reports a repeated
// extent period by period, the last chunk cut short, each chunk aliasing
// one period.
func TestImageRepeatRunsAliasPeriod(t *testing.T) {
	b := prog.NewBuilder("chunks")
	b.GlobalWords("x", []uint64{7})
	arr := b.GlobalRepeat("arr", 10, []uint64{1, 2, 3, 4})
	b.Halt()
	p := b.MustBuild()
	var addrs []int64
	var lens []int
	var first *uint64
	p.Init.Runs(func(addr int64, vals []uint64) {
		if addr < arr {
			return
		}
		addrs, lens = append(addrs, addr), append(lens, len(vals))
		if first == nil {
			first = &vals[0]
		} else if &vals[0] != first {
			t.Errorf("chunk at %#x does not alias the period", addr)
		}
	})
	want := []int64{arr, arr + 4*prog.WordSize, arr + 8*prog.WordSize}
	if !reflect.DeepEqual(addrs, want) || !reflect.DeepEqual(lens, []int{4, 4, 2}) {
		t.Fatalf("chunks at %v of %v words, want %v of [4 4 2]", addrs, lens, want)
	}
	if p.Init.Len() != 11 {
		t.Fatalf("Len = %d, want 11", p.Init.Len())
	}
}

// TestImageRepeatWritesPanic checks that a repeated extent is
// immutable: a Set or SetRun that touches it panics and changes
// nothing, while the words right against it stay writable, and an
// image holding one freezes like any other.
func TestImageRepeatWritesPanic(t *testing.T) {
	b := prog.NewBuilder("fixed")
	below := b.Global("below", 4)
	arr := b.GlobalRepeat("arr", 100, []uint64{5, 6, 7})
	above := b.Global("above", 4)
	b.Halt()
	p := b.MustBuild()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	last := arr + 99*prog.WordSize
	mustPanic("Set at the start", func() { p.Init.Set(arr, 1) })
	mustPanic("Set at the end", func() { p.Init.Set(last, 1) })
	mustPanic("SetRun into the start", func() { p.Init.SetRun(arr-2*prog.WordSize, []uint64{1, 1, 1}) })
	mustPanic("SetRun out of the end", func() { p.Init.SetRun(last, []uint64{1, 1}) })
	mustPanic("SetRun over the whole", func() { p.Init.SetRun(below, make([]uint64, 108)) })
	mustPanic("empty SetRun inside", func() { p.Init.SetRun(arr+8*prog.WordSize, nil) })
	if p.Init.Len() != 100 {
		t.Fatalf("refused writes changed the image: Len %d", p.Init.Len())
	}
	p.Init.SetRun(below, []uint64{1, 2, 3, 4}) // ends right at the extent
	p.Init.Set(above, 8)                       // right past it
	for a, want := range map[int64]uint64{arr - prog.WordSize: 4, arr: 5, last: 5, arr + 98*prog.WordSize: 7, above: 8} {
		if v, ok := p.Init.Get(a); !ok || v != want {
			t.Errorf("word %#x = %d (present %v), want %d", a, v, ok, want)
		}
	}

	p.Fingerprint()
	mustPanic("Set after the digest", func() { p.Init.Set(above, 9) })
	if v, _ := p.Init.Get(above); v != 8 {
		t.Fatalf("refused Set after the digest changed the image: %d", v)
	}

	b = prog.NewBuilder("empty")
	mustPanic("empty period", func() { b.GlobalRepeat("p", 10, nil) })
	mustPanic("empty array", func() { b.GlobalRepeat("a", 0, []uint64{1}) })
}
