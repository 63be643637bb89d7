// Package snap provides the little-endian binary codec used by the
// simulator checkpoint format (core.Snapshot / core.Restore).
//
// The encoding is deliberately primitive: fixed-width little-endian
// integers, IEEE-754 bit patterns for floats, and length-prefixed byte
// strings. There is no per-field tagging — the decoder must read fields
// in exactly the order the encoder wrote them, which keeps the format
// compact and makes layout changes impossible to miss (the versioned
// envelope in internal/core is bumped instead). Xfer is what holds the
// two orders together: a section lists its fields once and the same
// list runs in either direction.
//
// Reader is sticky-error: the first short read latches ErrTruncated and
// every subsequent accessor returns the zero value, so decode routines
// can be written as straight-line field reads with a single Err() check
// at the end. Explicit validation failures latch through Fail and take
// precedence over later truncation.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrTruncated is latched by a Reader when the payload ends before a
// requested field.
var ErrTruncated = errors.New("snap: truncated payload")

// Writer accumulates an append-only little-endian byte stream.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the encoded stream. The slice aliases the Writer's
// internal buffer; the caller must not write to the Writer afterwards.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends the IEEE-754 bit pattern of v, preserving it exactly
// (including NaN payloads and signed zeros).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes8 appends a length-prefixed (uint32) byte string.
func (w *Writer) Bytes8(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader consumes a stream produced by Writer. The zero value is not
// usable; construct with NewReader.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps data for decoding. The Reader does not copy data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Fail latches err (unless an error is already latched) and causes all
// subsequent reads to return zero values. Decoders use it to report
// validation failures mid-stream.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the number of unread bytes. Decoders use it to
// sanity-bound element counts before allocating (each encoded element
// occupies at least one byte, so count > Remaining() is always corrupt).
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.data) - r.off
}

// take returns the next n bytes, or nil after latching ErrTruncated.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data)-r.off < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 and narrows it to int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads an IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a byte and reports whether it is non-zero.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes8 reads a length-prefixed byte string. The returned slice
// aliases the underlying payload.
func (r *Reader) Bytes8() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.err = ErrTruncated
		return nil
	}
	return r.take(n)
}

// Xfer moves state between live objects and a snapshot one field at a
// time, in whichever direction it was built for: over a Writer every
// method appends the field it is pointed at, over a Reader it overwrites
// it. A decoding violation latches on the Reader, after which every read
// yields zero, so a section runs straight through and its caller checks
// Err at its checkpoints.
type Xfer struct {
	w *Writer // set when encoding
	r *Reader // set when decoding
}

// Xfer returns a transfer that encodes into w.
func (w *Writer) Xfer() *Xfer { return &Xfer{w: w} }

// Xfer returns a transfer that decodes from r.
func (r *Reader) Xfer() *Xfer { return &Xfer{r: r} }

// Decoding reports the direction: true when fields are being read.
func (x *Xfer) Decoding() bool { return x.r != nil }

// Err returns the error latched while decoding; nil when encoding.
func (x *Xfer) Err() error {
	if x.r == nil {
		return nil
	}
	return x.r.err
}

// Fail latches a validation failure (see Reader.Fail). Encoding never
// fails: a live object that breaks its own invariant is caught when the
// bytes are decoded.
func (x *Xfer) Fail(err error) {
	if x.r != nil {
		x.r.Fail(err)
	}
}

// fixed transfers one fixed-width field through the codec pair given.
func fixed[T any](x *Xfer, p *T, put func(*Writer, T), get func(*Reader) T) {
	if x.w != nil {
		put(x.w, *p)
		return
	}
	*p = get(x.r)
}

// The fixed-width fields, with the wire widths of the Writer and Reader
// methods of the same names.
func (x *Xfer) U8(p *uint8)    { fixed(x, p, (*Writer).U8, (*Reader).U8) }
func (x *Xfer) U32(p *uint32)  { fixed(x, p, (*Writer).U32, (*Reader).U32) }
func (x *Xfer) U64(p *uint64)  { fixed(x, p, (*Writer).U64, (*Reader).U64) }
func (x *Xfer) I64(p *int64)   { fixed(x, p, (*Writer).I64, (*Reader).I64) }
func (x *Xfer) Int(p *int)     { fixed(x, p, (*Writer).Int, (*Reader).Int) }
func (x *Xfer) F64(p *float64) { fixed(x, p, (*Writer).F64, (*Reader).F64) }
func (x *Xfer) Bool(p *bool)   { fixed(x, p, (*Writer).Bool, (*Reader).Bool) }

// U64s transfers a fixed-length run of words in bulk (no length prefix;
// the wire bytes are those of one U64 per element).
func (x *Xfer) U64s(p []uint64) {
	if x.w != nil {
		x.w.buf = slices.Grow(x.w.buf, 8*len(p))
		for _, v := range p {
			x.w.buf = binary.LittleEndian.AppendUint64(x.w.buf, v)
		}
		return
	}
	b := x.r.take(8 * len(p))
	if b == nil {
		clear(p)
		return
	}
	for i := range p {
		p[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// Each transfers every element of a fixed-length slice with elem. It
// calls elem through a func value, which is fine for the short tables
// sections have; a table of thousands loops over a field method itself.
func Each[T any](p []T, elem func(*T)) {
	for i := range p {
		elem(&p[i])
	}
}

// Const transfers a value the decoding side derives from its own
// configuration (a capacity, a geometry) rather than from the payload:
// decoding fails unless the stream agrees with v.
func (x *Xfer) Const(v int, what string) {
	got := v
	if x.Int(&got); got != v {
		x.Fail(fmt.Errorf("%s: snapshot has %d, this machine %d", what, got, v))
	}
}

// Count transfers an element count. Decoding rejects one outside
// [0, max], or above the bytes left — every element takes at least one,
// so such a count is a truncated payload — and continues with zero.
func (x *Xfer) Count(n *int, max int, what string) {
	if x.Int(n); x.r == nil {
		return
	}
	switch {
	case *n > x.r.Remaining():
		x.Fail(fmt.Errorf("%s: count %d: %w", what, *n, ErrTruncated))
	case *n < 0 || *n > max:
		x.Fail(fmt.Errorf("%s: holds %d of at most %d", what, *n, max))
	default:
		return
	}
	*n = 0
}

// Slice transfers a counted slice of at most max elements; decoding
// resizes *p, within its backing array when that is large enough.
func Slice[T any](x *Xfer, p *[]T, max int, what string, elem func(*T)) {
	n := len(*p)
	if x.Count(&n, max, what); x.r != nil {
		*p = append((*p)[:0], make([]T, n)...)
	}
	Each(*p, elem)
}

// Map transfers an int64-keyed map as a counted list in ascending key
// order, so equal maps encode to equal bytes; decoding adds to m.
func Map[V any](x *Xfer, m map[int64]V, what string, val func(*V)) {
	n := len(m)
	x.Count(&n, math.MaxInt, what)
	if x.w != nil {
		keys := make([]int64, 0, n)
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			v := m[k]
			x.w.I64(k)
			val(&v)
		}
		return
	}
	for ; n > 0 && x.r.err == nil; n-- {
		k := x.r.I64()
		var v V
		if val(&v); x.r.err == nil {
			m[k] = v
		}
	}
}
