package prog

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"clustersmt/internal/isa"
)

type imageWord struct {
	addr int64
	v    uint64
}

// allWords lists every present word in ascending address order.
func allWords(im *Image) []imageWord {
	var out []imageWord
	im.Runs(func(addr int64, vals []uint64) {
		for k, v := range vals {
			out = append(out, imageWord{addr + int64(k)*WordSize, v})
		}
	})
	return out
}

// TestImageSetGetAll covers presence (an explicit zero is present, an
// untouched word is not), overwrites, out-of-order Sets growing the
// array in both directions, and ascending order across a gap.
func TestImageSetGetAll(t *testing.T) {
	var im Image
	if im.Len() != 0 || len(allWords(&im)) != 0 {
		t.Fatal("zero Image is not empty")
	}
	if _, ok := im.Get(DataBase); ok {
		t.Fatal("Get on an empty image reports a word")
	}
	hi := int64(DataBase + 4096*WordSize)
	lo := int64(DataBase - 700*WordSize)
	im.Set(DataBase+8, 7)
	im.Set(hi, 9)         // grows upward, past several bitmap words
	im.Set(lo, 3)         // grows downward
	im.Set(DataBase, 0)   // explicit zero
	im.Set(DataBase+8, 8) // overwrite: still one word
	want := []imageWord{{lo, 3}, {DataBase, 0}, {DataBase + 8, 8}, {hi, 9}}
	if got := allWords(&im); !reflect.DeepEqual(got, want) {
		t.Fatalf("words = %v, want %v", got, want)
	}
	if im.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", im.Len(), len(want))
	}
	for _, w := range want {
		if v, ok := im.Get(w.addr); !ok || v != w.v {
			t.Errorf("Get(%#x) = %d, %v; want %d, true", w.addr, v, ok, w.v)
		}
	}
	for _, a := range []int64{DataBase + 16, lo - WordSize, hi + WordSize, DataBase + 4, -8, 0} {
		if _, ok := im.Get(a); ok {
			t.Errorf("Get(%#x) reports a word that was never set", a)
		}
	}
}

// TestImageMatchesMap drives an Image and a reference map with the same
// seeded stream of Sets and compares contents, count and order.
func TestImageMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var im Image
		ref := map[int64]uint64{}
		span := int64(1 + rng.Intn(5000))
		for i, n := 0, rng.Intn(2000); i < n; i++ {
			a := DataBase + rng.Int63n(span)*WordSize
			v := rng.Uint64() % 3 // zeros are common
			im.Set(a, v)
			ref[a] = v
		}
		if im.Len() != len(ref) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, im.Len(), len(ref))
		}
		prev := int64(-1)
		for _, w := range allWords(&im) {
			if w.addr <= prev {
				t.Fatalf("trial %d: words not ascending: %#x after %#x", trial, w.addr, prev)
			}
			prev = w.addr
			if rv, ok := ref[w.addr]; !ok || rv != w.v {
				t.Fatalf("trial %d: word %#x = %d, reference %d (present %v)", trial, w.addr, w.v, rv, ok)
			}
			delete(ref, w.addr)
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: Runs missed %d words", trial, len(ref))
		}
	}
}

// TestImageRuns checks that Runs reports maximal runs, including ones
// that start, end and continue across 64-word bitmap boundaries.
func TestImageRuns(t *testing.T) {
	var im Image
	set := func(from, to int64) { // word offsets from DataBase, half-open
		for w := from; w < to; w++ {
			im.Set(DataBase+w*WordSize, uint64(w))
		}
	}
	set(0, 1)
	set(2, 64)
	set(64, 200) // continues the previous run across a boundary
	set(255, 257)
	set(320, 384) // exactly one bitmap word
	type run struct{ from, n int64 }
	var got []run
	im.Runs(func(addr int64, vals []uint64) {
		from := (addr - DataBase) / WordSize
		for k, v := range vals {
			if v != uint64(from)+uint64(k) {
				t.Fatalf("run at word %d: vals[%d] = %d", from, k, v)
			}
		}
		got = append(got, run{from, int64(len(vals))})
	})
	want := []run{{0, 1}, {2, 198}, {255, 2}, {320, 64}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Runs = %v, want %v", got, want)
	}
}

// TestImageSetRunMatchesSet is the differential for the bulk setter:
// two images receive the same seeded writes, one word at a time through
// Set and as runs through SetRun — runs with unaligned heads and tails
// across bitmap words, overwrites of present words, growth below and
// above the span, empty runs — and must agree on every word and presence
// bit, Len, Runs and both digests. SetRun must also panic where Set does.
func TestImageSetRunMatchesSet(t *testing.T) {
	halt := []isa.Instr{{Op: isa.OpHalt}}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		ref := &Program{Name: "set", Code: halt, PrefixLen: 1}
		got := &Program{Name: "setrun", Code: halt, PrefixLen: 1}
		write := func(addr int64, vals []uint64) {
			for k, v := range vals {
				ref.Init.Set(addr+int64(k)*WordSize, v)
			}
			got.Init.SetRun(addr, vals)
		}
		run := func(n int) []uint64 {
			vals := make([]uint64, n)
			for k := range vals {
				vals[k] = rng.Uint64() % 3 // zeros are common
			}
			return vals
		}
		// Seed both images with the same scattered words.
		for i, n := 0, rng.Intn(50); i < n; i++ {
			a := DataBase + rng.Int63n(2000)*WordSize
			v := rng.Uint64()
			ref.Init.Set(a, v)
			got.Init.Set(a, v)
		}
		write(DataBase+3*WordSize, run(130))    // unaligned head and tail, three bitmap words
		write(DataBase+64*WordSize, run(64))    // exactly one bitmap word, over present words
		write(DataBase+100*WordSize, run(0))    // empty
		write(DataBase-200*WordSize, run(5))    // grows below
		write(DataBase+9000*WordSize, run(70))  // grows above
		write(DataBase+8990*WordSize, run(200)) // overlaps and extends the top
		for i, n := 0, rng.Intn(30); i < n; i++ {
			write(DataBase+(rng.Int63n(12000)-500)*WordSize, run(rng.Intn(300)))
		}

		if got.Init.Len() != ref.Init.Len() {
			t.Fatalf("trial %d: Len %d, Set gives %d", trial, got.Init.Len(), ref.Init.Len())
		}
		r, g := &ref.Init.dense[0], &got.Init.dense[0] // no repeated extents: one gap
		lo := min(r.base, g.base) - imageAlign
		hi := max(r.base+int64(len(r.words)), g.base+int64(len(g.words))) + imageAlign
		for w := lo; w < hi; w++ {
			rv, rok := ref.Init.Get(w * WordSize)
			gv, gok := got.Init.Get(w * WordSize)
			if rv != gv || rok != gok {
				t.Fatalf("trial %d: word %#x = %d (present %v), Set gives %d (present %v)", trial, w*WordSize, gv, gok, rv, rok)
			}
		}
		if r, g := allWords(&ref.Init), allWords(&got.Init); !reflect.DeepEqual(r, g) {
			t.Fatalf("trial %d: Runs differ: %d words vs %d", trial, len(g), len(r))
		}
		refKey, _ := ref.PrefixKey()
		gotKey, _ := got.PrefixKey()
		// The names differ and are not hashed, so the digests must not.
		if ref.Fingerprint() != got.Fingerprint() || refKey != gotKey {
			t.Fatalf("trial %d: digests differ", trial)
		}
	}

	// SetRun refuses what Set refuses — a bad word address, even for an
	// empty run, and any write to a frozen image — and a refused call
	// changes nothing.
	mustPanic := func(what, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg, _ := recover().(string); !strings.Contains(msg, want) {
				t.Errorf("%s: recovered %q, want a panic containing %q", what, msg, want)
			}
		}()
		f()
	}
	var im Image
	for _, a := range []int64{-8, DataBase + 4} {
		mustPanic("Set", "bad word address", func() { im.Set(a, 1) })
		mustPanic("SetRun", "bad word address", func() { im.SetRun(a, []uint64{1}) })
		mustPanic("empty SetRun", "bad word address", func() { im.SetRun(a, nil) })
	}
	if im.Len() != 0 || im.dense != nil {
		t.Fatal("a refused SetRun changed the image")
	}

	p := &Program{Name: "frozen-setrun", Code: halt}
	p.Init.SetRun(DataBase, []uint64{1, 2, 3})
	p.Fingerprint()
	mustPanic("frozen Set", "frozen-setrun", func() { p.Init.Set(DataBase, 7) })
	mustPanic("frozen", "frozen-setrun", func() { p.Init.SetRun(DataBase, []uint64{7, 7}) })
	mustPanic("frozen empty run", "frozen-setrun", func() { p.Init.SetRun(DataBase, nil) })
	if v, _ := p.Init.Get(DataBase); v != 1 || p.Init.Len() != 3 {
		t.Fatalf("refused SetRun changed the image: word %d, Len %d", v, p.Init.Len())
	}
}

// TestBuildHandsOverImage checks that Build moves the builder's image
// into the program instead of copying it, spanning the whole data
// segment: the program's array is the builder's, filling a declared
// global never regrows it, and the spent builder refuses a second Build.
func TestBuildHandsOverImage(t *testing.T) {
	b := NewBuilder("handover")
	k := b.GlobalWords("k", []uint64{1, 2})
	arr := b.Global("arr", 1000)
	b.Fli(1, 2.5) // the constant lands past arr, so the builder's array covers it
	b.Halt()
	builders := &b.init.dense[0].words[0]
	p := b.MustBuild()
	if &p.Init.dense[0].words[0] != builders {
		t.Fatal("Build copied the image instead of handing it over")
	}
	if b.init.Len() != 0 || b.init.dense != nil {
		t.Error("the builder still holds the image it handed over")
	}
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "handover") {
		t.Errorf("second Build: %v, want an error naming the builder", err)
	}
	vals := make([]uint64, 1000)
	for i := range vals {
		vals[i] = uint64(i)
	}
	p.Init.SetRun(arr, vals[:500])
	for i := int64(500); i < 1000; i++ {
		p.Init.Set(arr+i*WordSize, vals[i])
	}
	if &p.Init.dense[0].words[0] != builders {
		t.Error("filling a declared global reallocated the image")
	}
	if v, _ := p.Init.Get(k + WordSize); v != 2 || p.Init.Len() != 1003 {
		t.Errorf("k[1] = %d, Len = %d; want 2 and 1003", v, p.Init.Len())
	}

	// A builder that set no word yet: Build allocates the span once.
	b = NewBuilder("empty")
	arr = b.Global("arr", 500)
	b.Halt()
	p = b.MustBuild()
	backing := &p.Init.dense[0].words[0]
	p.Init.SetRun(arr, vals[:500])
	if &p.Init.dense[0].words[0] != backing || p.Init.Len() != 500 {
		t.Error("filling the only global reallocated the image")
	}
}

// TestSetAfterDigestPanics is the no-stale-digest rule: once either
// digest has been taken the image is frozen, and a Set panics naming
// the program instead of leaving the remembered digest wrong.
func TestSetAfterDigestPanics(t *testing.T) {
	for _, digest := range []string{"Fingerprint", "PrefixKey"} {
		t.Run(digest, func(t *testing.T) {
			b := NewBuilder("frozen-" + digest)
			a := b.Global("a", 2)
			b.Nop()
			b.MarkPrefix()
			b.Halt()
			p := b.MustBuild()
			p.Init.Set(a, 1) // still writable
			if digest == "Fingerprint" {
				p.Fingerprint()
			} else if _, ok := p.PrefixKey(); !ok {
				t.Fatal("no prefix key")
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "frozen-"+digest) {
					t.Fatalf("Set after %s: recovered %q, want a panic naming the program", digest, msg)
				}
				if v, _ := p.Init.Get(a); v != 1 {
					t.Fatalf("refused Set still changed the image: %d", v)
				}
			}()
			p.Init.Set(a, 2)
		})
	}
}

// TestImageRepeatGaps declares repeated extents in ascending order over
// seeded images — short ones within a single bitmap word included, so
// the dense arrays on either side reach into one — and keeps setting
// words in every gap between them, mirroring everything into a
// reference map. Every word, Len and the words Runs yields must agree.
// Declaring an extent below a present word or another extent must
// panic and change nothing.
func TestImageRepeatGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		var im Image
		ref := map[int64]uint64{}
		var holes [][2]int64 // repeated extents, as word offsets [from, to)
		inHole := func(w int64) bool {
			for _, h := range holes {
				if w >= h[0] && w < h[1] {
					return true
				}
			}
			return false
		}
		top := int64(0) // first word offset above every present word and extent
		set := func(k int, span int64) {
			for i := 0; i < k; i++ {
				w := rng.Int63n(span)
				if inHole(w) {
					continue
				}
				v := rng.Uint64() % 3
				im.Set(DataBase+w*WordSize, v)
				ref[DataBase+w*WordSize] = v
				top = max(top, w+1)
			}
		}
		refused := func(from int64) {
			before := im.Len()
			defer func() {
				if recover() == nil {
					t.Fatalf("trial %d: repeat at %d below top %d did not panic", trial, from, top)
				}
				if im.Len() != before {
					t.Fatalf("trial %d: refused repeat changed Len", trial)
				}
			}()
			im.repeat(DataBase+from*WordSize, 1, []uint64{1})
		}
		set(rng.Intn(300), 1+rng.Int63n(1000))
		for r := 0; r < 1+rng.Intn(3); r++ {
			from := top + rng.Int63n(100)
			n := 1 + rng.Int63n(2000)
			if rng.Intn(2) == 0 {
				n = 1 + rng.Int63n(40)
			}
			period := make([]uint64, 1+rng.Intn(20))
			for k := range period {
				period[k] = rng.Uint64() % 3
			}
			if top > 0 {
				refused(rng.Int63n(top))
			}
			im.repeat(DataBase+from*WordSize, n, period)
			holes = append(holes, [2]int64{from, from + n})
			for w := from; w < from+n; w++ {
				ref[DataBase+w*WordSize] = period[(w-from)%int64(len(period))]
			}
			top = from + n
			set(rng.Intn(200), top+1+rng.Int63n(300)) // into every gap so far
		}
		if im.Len() != len(ref) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, im.Len(), len(ref))
		}
		for w := int64(-64); w < top+64; w++ {
			a := DataBase + w*WordSize
			v, ok := im.Get(a)
			rv, rok := ref[a]
			if v != rv || ok != rok {
				t.Fatalf("trial %d: word %d = %d (present %v), want %d (present %v)", trial, w, v, ok, rv, rok)
			}
		}
		prev, n := int64(-1), 0
		for _, w := range allWords(&im) {
			if w.addr <= prev || ref[w.addr] != w.v {
				t.Fatalf("trial %d: Runs yields %#x = %d after %#x", trial, w.addr, w.v, prev)
			}
			prev = w.addr
			n++
		}
		if n != len(ref) {
			t.Fatalf("trial %d: Runs yields %d words, want %d", trial, n, len(ref))
		}
	}
}

// TestBuildHandsOverRepeat checks that nothing the size of a repeated
// extent is allocated: Build grows the dense arrays over the data
// segment on either side of a 1M-word extent, and they stay within a
// bitmap word of what they must cover.
func TestBuildHandsOverRepeat(t *testing.T) {
	b := NewBuilder("big")
	b.GlobalWords("n", []uint64{4})
	arr := b.GlobalRepeat("arr", 1<<20, []uint64{1, 2, 3})
	out := b.Global("out", 64)
	b.Fli(1, 2.5)
	b.Halt()
	p := b.MustBuild()
	words := 0
	for _, d := range p.Init.dense {
		words += len(d.words)
	}
	if need := int((arr-DataBase+p.DataEnd-out)/WordSize) + 4*imageAlign; words > need {
		t.Fatalf("dense arrays hold %d words; the segment outside the extent needs %d", words, need)
	}
	if v, ok := p.Init.Get(arr + (1<<20-1)*WordSize); !ok || v != 1 {
		t.Fatalf("last word of the extent = %d (present %v), want 1", v, ok)
	}
	if p.Init.Len() != 1<<20+2 {
		t.Fatalf("Len = %d, want %d", p.Init.Len(), 1<<20+2)
	}
}
