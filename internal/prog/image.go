package prog

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
)

// imageAlign is the granularity, in words, of a dense extent's array:
// its base and length stay multiples of 64 so that one bitmap word
// covers exactly 64 consecutive data words.
const imageAlign = 64

// Image is an initial memory image: a set of (word address, value) pairs
// kept in address order. It is held as an address-ordered set of extents
// whose words never overlap, of two kinds:
//
//   - A dense extent is a word array plus a bitmap of which words are
//     present — a word explicitly set to zero is present (loaded and
//     hashed), a word never set is absent. Set and SetRun write here.
//   - A repeated extent is an address, a word count and a period: word k
//     holds period[k % len(period)]. It is declared whole
//     (Builder.GlobalRepeat), every word is present, and it is immutable:
//     a Set or SetRun that touches it panics, like a write after freeze.
//     Building, handing over and hashing it cost its period, not its
//     footprint.
//
// The repeated extents cut the address space into gaps, and each gap
// holds at most one dense extent, so dense words never have to move
// between arrays. A dense array may reach into a neighbouring repeated
// extent — it is rounded out to 64-word boundaries, and one grown before
// the extent was declared keeps its slack — but no word is ever present
// there.
//
// The zero Image is empty and ready for use. An Image is not safe for
// concurrent writes; concurrent readers are fine once writing has
// stopped.
type Image struct {
	reps  []repeat // address order
	dense []dense  // dense[g] lies in gap g, between reps[g-1] and reps[g]: len(reps)+1 of them, or nil while empty
	n     int      // present words, repeated ones included

	// frozen names the program whose digest first covered this image;
	// nil while the image is still writable (see Program.Init).
	frozen atomic.Pointer[string]
}

// repeat is a repeated extent over word indices [start, end).
type repeat struct {
	start, end int64
	period     []uint64 // 1 <= len(period) <= end-start; owned by the image
}

// dense is a dense extent: words[i] is the word at index base+i, present
// when bit i%64 of set[i/64] is.
type dense struct {
	base  int64    // word index (addr / WordSize) of words[0]; multiple of imageAlign
	words []uint64 // len is a multiple of imageAlign
	set   []uint64 // len(words)/64 long
}

// Len returns the number of words present.
func (im *Image) Len() int { return im.n }

// locate returns where word index w falls: in reps[k] when in is set,
// otherwise in gap k.
func (im *Image) locate(w int64) (k int, in bool) {
	k = sort.Search(len(im.reps), func(k int) bool { return im.reps[k].start > w })
	if k > 0 && w < im.reps[k-1].end {
		return k - 1, true
	}
	return k, false
}

// writable vets a write of n words at byte address addr — op names the
// caller — and returns the gap that holds them. It panics on an image a
// program digest has already covered, on an unaligned or negative
// address (even for an empty write) and on a write that touches a
// repeated extent: all are programming errors.
func (im *Image) writable(op string, addr, n int64) int {
	if name := im.frozen.Load(); name != nil {
		panic(fmt.Sprintf("prog: %s: Init.%s(%#x) after the program was fingerprinted", *name, op, addr))
	}
	if addr < 0 || addr%WordSize != 0 {
		panic(fmt.Sprintf("prog: Image.%s: bad word address %#x", op, addr))
	}
	if im.dense == nil {
		im.dense = make([]dense, 1)
	}
	w := addr / WordSize
	g, in := im.locate(w)
	if in || g < len(im.reps) && w+n > im.reps[g].start {
		// reps[g] is the extent holding w, or the next one up.
		panic(fmt.Sprintf("prog: Image.%s(%#x, %d words) writes into the repeated extent at %#x", op, addr, n, im.reps[g].start*WordSize))
	}
	return g
}

// Set makes the word at byte address addr present with value v,
// overwriting any earlier value. It panics on an unaligned or negative
// address, inside a repeated extent, and on an image a program digest
// has already covered: all are programming errors.
func (im *Image) Set(addr int64, v uint64) {
	// An image without repeated extents has one gap and a Set there
	// needs no more vetting than this; applications Set every word, and
	// going through writable each time costs a third more build time.
	g := 0
	if len(im.reps) > 0 || im.dense == nil || addr < 0 || addr%WordSize != 0 || im.frozen.Load() != nil {
		g = im.writable("Set", addr, 1)
	}
	d := &im.dense[g]
	i := addr/WordSize - d.base
	if i < 0 || i >= int64(len(d.words)) {
		// Ask for as much again as there is, so that n Sets in ascending
		// order cost O(n) copying.
		im.grow(g, addr/WordSize, addr/WordSize+1+int64(len(d.words)))
		i = addr/WordSize - d.base
	}
	d.words[i] = v
	if bit := uint64(1) << (i % 64); d.set[i/64]&bit == 0 {
		d.set[i/64] |= bit
		im.n++
	}
}

// SetRun is Set for consecutive words: it makes the len(vals) words
// starting at byte address addr present with vals' values. It grows the
// backing array at most once, copies the values in bulk and marks them
// present a bitmap word at a time. It panics where Set would, even for
// an empty run, and when any of the words lies in a repeated extent.
func (im *Image) SetRun(addr int64, vals []uint64) {
	g := im.writable("SetRun", addr, int64(len(vals)))
	if len(vals) == 0 {
		return
	}
	d := &im.dense[g]
	i := addr/WordSize - d.base
	end := i + int64(len(vals))
	if i < 0 || end > int64(len(d.words)) {
		// As Set: at least as much again as there is, so that ascending
		// runs cost O(n) copying overall.
		im.grow(g, addr/WordSize, addr/WordSize+max(int64(len(vals)), 1+int64(len(d.words))))
		i = addr/WordSize - d.base
		end = i + int64(len(vals))
	}
	copy(d.words[i:end], vals)
	for i < end {
		w := i / 64
		top := min(end, (w+1)*64)
		mask := ^uint64(0) >> (64 - (top - i)) << (i % 64)
		im.n += bits.OnesCount64(mask &^ d.set[w])
		d.set[w] |= mask
		i = top
	}
}

// repeat declares the n words from byte address addr as a repeated
// extent of period (see Image), which it copies. Extents are declared in
// ascending order, each above every word present so far, as the builder
// lays out its globals. It panics where SetRun would, on an empty
// extent or period, and on a word or extent already at or above addr.
func (im *Image) repeat(addr, n int64, period []uint64) {
	if n <= 0 || len(period) == 0 {
		panic(fmt.Sprintf("prog: Image.repeat(%#x): %d words of a %d-word period", addr, n, len(period)))
	}
	g := im.writable("repeat", addr, n)
	w, d := addr/WordSize, &im.dense[g]
	if g < len(im.reps) || d.scan(int(max(w-d.base, 0)), 0) < len(d.words) {
		panic(fmt.Sprintf("prog: Image.repeat(%#x): a word or extent is already present above it", addr))
	}
	im.reps = append(im.reps, repeat{start: w, end: w + n, period: slices.Clone(period[:min(int64(len(period)), n)])})
	im.dense = append(im.dense, dense{})
	im.n += int(n)
}

// Runs calls f for every present word, in ascending address order: once
// for every maximal run of consecutive present words in a dense extent,
// and once per period-sized chunk of a repeated extent (the last chunk
// may be cut short). addr is the byte address of vals[0]. vals aliases
// the image and must not be modified or retained.
func (im *Image) Runs(f func(addr int64, vals []uint64)) {
	im.extents(f, func(addr, n int64, period []uint64) {
		for off := int64(0); off < n; off += int64(len(period)) {
			f(addr+off*WordSize, period[:min(int64(len(period)), n-off)])
		}
	})
}

// extents walks the image in ascending address order, calling run for
// every maximal run of present words in a dense extent and rep for every
// repeated extent: its byte address, its word count and its period.
// Neither may modify or retain the slices it is given.
func (im *Image) extents(run func(addr int64, vals []uint64), rep func(addr, n int64, period []uint64)) {
	for g := range im.dense {
		d := &im.dense[g]
		total := len(d.words)
		for i := 0; i < total; {
			// Skip to the next present word, then extend over present ones;
			// whole bitmap words fall out of the bit scans 64 at a time.
			i = d.scan(i, 0)
			if i >= total {
				break
			}
			j := d.scan(i, ^uint64(0))
			run((d.base+int64(i))*WordSize, d.words[i:j])
			i = j
		}
		if g < len(im.reps) {
			r := &im.reps[g]
			rep(r.start*WordSize, r.end-r.start, r.period)
		}
	}
}

// scan returns the first index >= i whose presence bit differs from the
// bits of skip (all zeros: find a present word; all ones: find an
// absent one), or len(words).
func (d *dense) scan(i int, skip uint64) int {
	for w := i / 64; w < len(d.set); w++ {
		diff := (d.set[w] ^ skip) &^ (uint64(1)<<(i%64) - 1)
		if diff != 0 {
			return w*64 + bits.TrailingZeros64(diff)
		}
		i = (w + 1) * 64
	}
	return len(d.words)
}

// grow makes gap g's dense array cover word indices [lo, hi), lo inside
// the gap, keeping every present word. The array is rounded out to
// imageAlign, and its growth stops at the next repeated extent.
func (im *Image) grow(g int, lo, hi int64) {
	d := &im.dense[g]
	if g < len(im.reps) {
		hi = min(hi, im.reps[g].start)
	}
	first := lo / imageAlign * imageAlign
	end := (hi + imageAlign - 1) / imageAlign * imageAlign
	var shift int64 // where the old words land in the new array; a multiple of imageAlign
	if len(d.words) > 0 {
		first = min(first, d.base)
		end = max(end, d.base+int64(len(d.words)))
		shift = d.base - first
	}
	if end-first == int64(len(d.words)) {
		return
	}
	words := make([]uint64, end-first)
	set := make([]uint64, (end-first)/64)
	copy(words[shift:], d.words)
	copy(set[shift/64:], d.set)
	*d = dense{base: first, words: words, set: set}
}

// moveTo hands im's contents to the empty image dst with every dense
// array grown to cover its gap's share of byte addresses [lo, hi) — the
// range minus the repeated extents — so that filling that range
// afterwards never reallocates, and leaves im empty. Nothing is copied
// but the bits of any growth, and nothing the size of a repeated extent
// is allocated.
func (im *Image) moveTo(dst *Image, lo, hi int64) {
	if im.dense == nil {
		im.dense = make([]dense, 1)
	}
	for g := range im.dense {
		glo, ghi := lo/WordSize, hi/WordSize
		if g > 0 {
			glo = max(glo, im.reps[g-1].end)
		}
		if g < len(im.reps) {
			ghi = min(ghi, im.reps[g].start)
		}
		if ghi > glo {
			im.grow(g, glo, ghi)
		}
	}
	dst.reps, dst.dense, dst.n = im.reps, im.dense, im.n
	im.reps, im.dense, im.n = nil, nil, 0
}

// freeze makes every later Set or SetRun panic, naming program name. The first
// freeze wins; an image is only ever owned by one program.
func (im *Image) freeze(name string) {
	im.frozen.CompareAndSwap(nil, &name)
}
