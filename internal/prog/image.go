package prog

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// imageAlign is the granularity, in words, of an Image's backing array:
// its base and length stay multiples of 64 so that one bitmap word
// covers exactly 64 consecutive data words.
const imageAlign = 64

// Image is an initial memory image: a set of (word address, value)
// pairs kept in address order. It is a dense word array over the span
// of addresses set so far plus a bitmap of which words are present — a
// word explicitly set to zero is present (loaded and hashed), a word
// never set is absent. Program data lives in one contiguous segment, so
// the dense form is both smaller than a hash map of the same contents
// and walked sequentially by the loader and the fingerprint.
//
// The zero Image is empty and ready for use. An Image is not safe for
// concurrent Set or SetRun; concurrent readers are fine once writing has
// stopped.
type Image struct {
	base  int64    // word index (addr / WordSize) of words[0]; multiple of imageAlign
	words []uint64 // len is a multiple of imageAlign
	set   []uint64 // bit i of set[i/64]: words[i] is present; len(words)/64 long
	n     int      // present words

	// frozen names the program whose digest first covered this image;
	// nil while the image is still writable (see Program.Init).
	frozen atomic.Pointer[string]
}

// Len returns the number of words present.
func (im *Image) Len() int { return im.n }

// Set makes the word at byte address addr present with value v,
// overwriting any earlier value. It panics on an unaligned or negative
// address, and on an image a program digest has already covered: both
// are programming errors.
func (im *Image) Set(addr int64, v uint64) {
	if name := im.frozen.Load(); name != nil {
		panic(fmt.Sprintf("prog: %s: Init.Set(%#x) after the program was fingerprinted", *name, addr))
	}
	if addr < 0 || addr%WordSize != 0 {
		panic(fmt.Sprintf("prog: Image.Set: bad word address %#x", addr))
	}
	i := addr/WordSize - im.base
	if i < 0 || i >= int64(len(im.words)) {
		// Ask for as much again as there is, so that n Sets in ascending
		// order cost O(n) copying.
		im.span(addr, addr+WordSize*(1+int64(len(im.words))))
		i = addr/WordSize - im.base
	}
	im.words[i] = v
	if bit := uint64(1) << (i % 64); im.set[i/64]&bit == 0 {
		im.set[i/64] |= bit
		im.n++
	}
}

// SetRun is Set for consecutive words: it makes the len(vals) words
// starting at byte address addr present with vals' values. It grows the
// backing array at most once, copies the values in bulk and marks them
// present a bitmap word at a time. It panics where Set would, even for
// an empty run.
func (im *Image) SetRun(addr int64, vals []uint64) {
	if name := im.frozen.Load(); name != nil {
		panic(fmt.Sprintf("prog: %s: Init.SetRun(%#x) after the program was fingerprinted", *name, addr))
	}
	if addr < 0 || addr%WordSize != 0 {
		panic(fmt.Sprintf("prog: Image.SetRun: bad word address %#x", addr))
	}
	if len(vals) == 0 {
		return
	}
	i := addr/WordSize - im.base
	end := i + int64(len(vals))
	if i < 0 || end > int64(len(im.words)) {
		// As Set: at least as much again as there is, so that ascending
		// runs cost O(n) copying overall.
		im.span(addr, addr+WordSize*max(int64(len(vals)), 1+int64(len(im.words))))
		i = addr/WordSize - im.base
		end = i + int64(len(vals))
	}
	copy(im.words[i:end], vals)
	for i < end {
		w := i / 64
		top := min(end, (w+1)*64)
		mask := ^uint64(0) >> (64 - (top - i)) << (i % 64)
		im.n += bits.OnesCount64(mask &^ im.set[w])
		im.set[w] |= mask
		i = top
	}
}

// Get returns the word at addr and whether it is present.
func (im *Image) Get(addr int64) (v uint64, ok bool) {
	i := addr/WordSize - im.base
	if addr < 0 || addr%WordSize != 0 || i < 0 || i >= int64(len(im.words)) {
		return 0, false
	}
	if im.set[i/64]&(1<<(i%64)) == 0 {
		return 0, false
	}
	return im.words[i], true
}

// Runs calls f once for every maximal run of consecutive present words,
// in ascending address order: addr is the byte address of vals[0]. vals
// aliases the image and must not be modified or retained.
func (im *Image) Runs(f func(addr int64, vals []uint64)) {
	total := len(im.words)
	for i := 0; i < total; {
		// Skip to the next present word, then extend over present ones;
		// whole bitmap words fall out of the bit scans 64 at a time.
		i = im.scan(i, 0)
		if i >= total {
			return
		}
		j := im.scan(i, ^uint64(0))
		f((im.base+int64(i))*WordSize, im.words[i:j])
		i = j
	}
}

// scan returns the first index >= i whose presence bit differs from the
// bits of skip (all zeros: find a present word; all ones: find an
// absent one), or len(words).
func (im *Image) scan(i int, skip uint64) int {
	for w := i / 64; w < len(im.set); w++ {
		diff := (im.set[w] ^ skip) &^ (uint64(1)<<(i%64) - 1)
		if diff != 0 {
			return w*64 + bits.TrailingZeros64(diff)
		}
		i = (w + 1) * 64
	}
	return len(im.words)
}

// span grows the backing array to cover byte addresses [lo, hi),
// keeping every present word.
func (im *Image) span(lo, hi int64) {
	first := lo / WordSize / imageAlign * imageAlign
	end := (hi/WordSize + imageAlign - 1) / imageAlign * imageAlign
	var shift int64 // where the old words land in the new array; a multiple of imageAlign
	if len(im.words) > 0 {
		first = min(first, im.base)
		end = max(end, im.base+int64(len(im.words)))
		shift = im.base - first
	}
	if end-first == int64(len(im.words)) {
		return
	}
	words := make([]uint64, end-first)
	set := make([]uint64, (end-first)/64)
	copy(words[shift:], im.words)
	copy(set[shift/64:], im.set)
	im.base, im.words, im.set = first, words, set
}

// moveTo hands im's contents to the empty image dst with the backing
// array grown to cover byte addresses [lo, hi), so that filling that
// range afterwards never reallocates, and leaves im empty. Nothing is
// copied but the bits of any growth.
func (im *Image) moveTo(dst *Image, lo, hi int64) {
	if hi > lo {
		im.span(lo, hi)
	}
	dst.base, dst.words, dst.set, dst.n = im.base, im.words, im.set, im.n
	im.base, im.words, im.set, im.n = 0, nil, nil, 0
}

// freeze makes every later Set or SetRun panic, naming program name. The first
// freeze wins; an image is only ever owned by one program.
func (im *Image) freeze(name string) {
	im.frozen.CompareAndSwap(nil, &name)
}
