package prog

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

type imageWord struct {
	addr int64
	v    uint64
}

func allWords(im *Image) []imageWord {
	var out []imageWord
	im.All(func(addr int64, v uint64) { out = append(out, imageWord{addr, v}) })
	return out
}

// TestImageSetGetAll covers presence (an explicit zero is present, an
// untouched word is not), overwrites, out-of-order Sets growing the
// array in both directions, and All's ascending order across a gap.
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
		t.Fatalf("All = %v, want %v", got, want)
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
		im.All(func(a int64, v uint64) {
			if a <= prev {
				t.Fatalf("trial %d: All not ascending: %#x after %#x", trial, a, prev)
			}
			prev = a
			if rv, ok := ref[a]; !ok || rv != v {
				t.Fatalf("trial %d: word %#x = %d, reference %d (present %v)", trial, a, v, rv, ok)
			}
			delete(ref, a)
		})
		if len(ref) != 0 {
			t.Fatalf("trial %d: All missed %d words", trial, len(ref))
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

// TestBuildCopiesImage checks that Build hands the program its own
// image covering the whole data segment: the builder stays usable, the
// two do not alias, and filling a global afterwards does not regrow.
func TestBuildCopiesImage(t *testing.T) {
	b := NewBuilder("t")
	k := b.GlobalWords("k", []uint64{1, 2})
	arr := b.Global("arr", 1000)
	b.Fli(1, 2.5)
	b.Halt()
	p1 := b.MustBuild()
	backing := &p1.Init.words[0]
	for i := int64(0); i < 1000; i++ {
		p1.Init.Set(arr+i*WordSize, uint64(i))
	}
	if backing != &p1.Init.words[0] {
		t.Error("filling a declared global reallocated the image")
	}
	p1.Init.Set(k, 99)
	p2 := b.MustBuild()
	if v, _ := p2.Init.Get(k); v != 1 {
		t.Errorf("second Build sees the first program's Set: k = %d", v)
	}
	if p2.Init.Len() != 3 || p1.Init.Len() != 1003 {
		t.Errorf("Len = %d and %d, want 3 and 1003", p2.Init.Len(), p1.Init.Len())
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
