package snap

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// field is one primitive written to and read back from a stream: put
// appends it, get reads it and reports whether the value survived.
type field struct {
	name string
	put  func(w *Writer)
	get  func(r *Reader) bool
}

func u8(v uint8) field {
	return field{"U8", func(w *Writer) { w.U8(v) }, func(r *Reader) bool { return r.U8() == v }}
}
func u32(v uint32) field {
	return field{"U32", func(w *Writer) { w.U32(v) }, func(r *Reader) bool { return r.U32() == v }}
}
func u64(v uint64) field {
	return field{"U64", func(w *Writer) { w.U64(v) }, func(r *Reader) bool { return r.U64() == v }}
}
func i64(v int64) field {
	return field{"I64", func(w *Writer) { w.I64(v) }, func(r *Reader) bool { return r.I64() == v }}
}
func in(v int) field {
	return field{"Int", func(w *Writer) { w.Int(v) }, func(r *Reader) bool { return r.Int() == v }}
}
func f64(v float64) field {
	// Bit patterns, not ==: NaN payloads and the sign of zero must survive.
	return field{"F64", func(w *Writer) { w.F64(v) },
		func(r *Reader) bool { return math.Float64bits(r.F64()) == math.Float64bits(v) }}
}
func boolean(v bool) field {
	return field{"Bool", func(w *Writer) { w.Bool(v) }, func(r *Reader) bool { return r.Bool() == v }}
}
func bytes8(v []byte) field {
	return field{"Bytes8", func(w *Writer) { w.Bytes8(v) }, func(r *Reader) bool { return bytes.Equal(r.Bytes8(), v) }}
}
func str(v string) field {
	return field{"String", func(w *Writer) { w.String(v) }, func(r *Reader) bool { return r.String() == v }}
}

// allFields is every Writer/Reader primitive at its boundary values.
func allFields() []field {
	return []field{
		u8(0), u8(1), u8(math.MaxUint8),
		u32(0), u32(1), u32(0x01020304), u32(math.MaxUint32),
		u64(0), u64(0x0102030405060708), u64(math.MaxUint64),
		i64(0), i64(-1), i64(math.MinInt64), i64(math.MaxInt64),
		in(0), in(-1), in(math.MinInt), in(math.MaxInt),
		f64(0), f64(math.Copysign(0, -1)), f64(1.5), f64(math.Inf(-1)), f64(math.MaxFloat64),
		f64(math.SmallestNonzeroFloat64), f64(math.Float64frombits(0x7ff8_0000_dead_beef)),
		boolean(false), boolean(true),
		bytes8(nil), bytes8([]byte{0}), bytes8(bytes.Repeat([]byte{0xa5, 0x00, 0xff}, 100)),
		str(""), str("CSMT"), str("héllo\x00wörld"),
	}
}

func encode(fields []field) []byte {
	w := NewWriter()
	for _, f := range fields {
		f.put(w)
	}
	return w.Bytes()
}

// TestRoundTrip writes every primitive at its boundary values into one
// stream and reads them back in order: every value must survive, the
// stream must be consumed exactly, and no error may latch.
func TestRoundTrip(t *testing.T) {
	fields := allFields()
	w := NewWriter()
	for _, f := range fields {
		before := w.Len()
		f.put(w)
		if w.Len() <= before {
			t.Fatalf("%s wrote nothing", f.name)
		}
	}
	if w.Len() != len(w.Bytes()) {
		t.Fatalf("Len %d, %d bytes", w.Len(), len(w.Bytes()))
	}
	r := NewReader(w.Bytes())
	for i, f := range fields {
		if !f.get(r) {
			t.Errorf("field %d (%s) did not round-trip", i, f.name)
		}
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("after the last field: err %v, %d bytes left", r.Err(), r.Remaining())
	}
}

// TestLayout pins the wire format: little-endian fixed-width integers,
// one-byte bools, uint32 length prefixes.
func TestLayout(t *testing.T) {
	got := encode([]field{u8(0xab), u32(0x01020304), i64(-2), boolean(true), str("hi"), f64(1)})
	want := []byte{
		0xab,
		0x04, 0x03, 0x02, 0x01,
		0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0x01,
		0x02, 0x00, 0x00, 0x00, 'h', 'i',
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
	}
	if !bytes.Equal(got, want) {
		t.Errorf("encoding\n got % x\nwant % x", got, want)
	}
	if r := NewReader([]byte{2}); !r.Bool() {
		t.Error("Bool(2) read as false; any non-zero byte is true")
	}
}

// TestTruncation cuts the encoded stream at every byte offset. Fields
// wholly before the cut must still decode; the field the cut lands in
// must latch ErrTruncated — never panic, never pass off a zero as data
// — and from then on the reader must stay failed: zero values, zero
// Remaining, the same error.
func TestTruncation(t *testing.T) {
	fields := allFields()
	var ends []int // ends[i] = offset just past field i
	w := NewWriter()
	for _, f := range fields {
		f.put(w)
		ends = append(ends, w.Len())
	}
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut:cut])
		for i, f := range fields {
			ok := f.get(r)
			if ends[i] <= cut {
				if !ok || r.Err() != nil {
					t.Fatalf("cut %d: field %d (%s) lies before the cut but failed (err %v)", cut, i, f.name, r.Err())
				}
				continue
			}
			if !errors.Is(r.Err(), ErrTruncated) {
				t.Fatalf("cut %d: field %d (%s) spans the cut but err = %v, want ErrTruncated", cut, i, f.name, r.Err())
			}
			if r.Remaining() != 0 {
				t.Fatalf("cut %d: failed reader reports %d bytes remaining", cut, r.Remaining())
			}
		}
		// A failed reader returns zero values whatever is asked of it.
		if r.U8() != 0 || r.U32() != 0 || r.U64() != 0 || r.I64() != 0 || r.Int() != 0 ||
			r.F64() != 0 || r.Bool() || r.Bytes8() != nil || r.String() != "" {
			t.Fatalf("cut %d: failed reader returned a non-zero value", cut)
		}
	}
}

// TestBytes8HugeLength: a length prefix larger than the payload (the
// crafted-checkpoint case) is truncation, not an allocation or a slice
// panic.
func TestBytes8HugeLength(t *testing.T) {
	for _, n := range []uint32{5, math.MaxInt32, math.MaxUint32} {
		w := NewWriter()
		w.U32(n)
		w.U32(0xdeadbeef) // four bytes of payload, fewer than any n
		r := NewReader(w.Bytes())
		if b := r.Bytes8(); b != nil || !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("length %d: got %d bytes, err %v; want nil, ErrTruncated", n, len(b), r.Err())
		}
	}
}

// TestFailIsSticky: Fail latches the first error only, and takes
// precedence over a later truncation.
func TestFailIsSticky(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	r := NewReader(encode([]field{u64(7), u64(9)}))
	if r.U64() != 7 {
		t.Fatal("first field")
	}
	r.Fail(first)
	r.Fail(second)
	if r.U64() != 0 || r.Remaining() != 0 {
		t.Error("reads continue after Fail")
	}
	r.U64() // would truncate
	if r.Err() != first {
		t.Errorf("err = %v, want the first failure", r.Err())
	}

	r = NewReader(nil)
	r.U8()
	r.Fail(first)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Fail after truncation replaced the error: %v", r.Err())
	}
}

// xferValues holds one field of every kind Xfer transfers.
type xferValues struct {
	a    uint8
	b    uint32
	c    uint64
	d    int64
	e    int
	f    float64
	g    bool
	h    [3]uint64
	i    [2]float64
	list []int64
}

// xferAll is the one field list: over a Writer it encodes v, over a
// Reader it decodes into v.
func (v *xferValues) xferAll(x *Xfer) {
	x.U8(&v.a)
	x.U32(&v.b)
	x.U64(&v.c)
	x.I64(&v.d)
	x.Int(&v.e)
	x.F64(&v.f)
	x.Bool(&v.g)
	x.U64s(v.h[:])
	Each(v.i[:], x.F64)
	x.Const(7, "test: capacity")
	Slice(x, &v.list, 4, "test: list", x.I64)
}

// TestXferMatchesWriter pins Xfer to the wire widths of the Writer
// methods it is named after — one list run in both directions — and its
// composite helpers to their layouts: a bulk run is its elements, a
// Const is an Int, a Slice is a count then elements.
func TestXferMatchesWriter(t *testing.T) {
	v := xferValues{0xab, 0x01020304, 1 << 63, -2, -3, 1.5, true, [3]uint64{1, 2, 3}, [2]float64{0.5, -0.25},
		[]int64{9, 8}}
	w := NewWriter()
	v.xferAll(w.Xfer())

	want := NewWriter()
	want.U8(v.a)
	want.U32(v.b)
	want.U64(v.c)
	want.I64(v.d)
	want.Int(v.e)
	want.F64(v.f)
	want.Bool(v.g)
	for _, u := range v.h {
		want.U64(u)
	}
	for _, f := range v.i {
		want.F64(f)
	}
	want.Int(7)
	want.Int(2)
	want.I64(9)
	want.I64(8)
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Fatalf("Xfer encoding\n got % x\nwant % x", w.Bytes(), want.Bytes())
	}

	backing := make([]int64, 1, 4)
	got := xferValues{list: backing}
	r := NewReader(w.Bytes())
	if got.xferAll(r.Xfer()); r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", r.Err(), r.Remaining())
	}
	back := NewWriter()
	if got.xferAll(back.Xfer()); !bytes.Equal(back.Bytes(), w.Bytes()) {
		t.Fatal("decode→encode changed the bytes")
	}
	if &got.list[0] != &backing[0] {
		t.Error("Slice reallocated a backing array that was large enough")
	}
}

// TestXferValidation checks what the bounded helpers refuse while
// decoding, that the first failure sticks, and that encoding ignores
// Fail.
func TestXferValidation(t *testing.T) {
	ints := func(vs ...int) []byte {
		w := NewWriter()
		for _, v := range vs {
			w.Int(v)
		}
		return w.Bytes()
	}
	for name, tc := range map[string]struct {
		data      []byte
		run       func(x *Xfer)
		truncated bool
	}{
		"Const differs":         {ints(8), func(x *Xfer) { x.Const(7, "c") }, false},
		"Count negative":        {ints(-1, 0, 0), func(x *Xfer) { n := 0; x.Count(&n, 4, "c") }, false},
		"Count over max":        {ints(2, 0, 0), func(x *Xfer) { n := 0; x.Count(&n, 1, "c") }, false},
		"Count over bytes left": {ints(9), func(x *Xfer) { n := 0; x.Count(&n, 100, "c") }, true},
	} {
		r := NewReader(tc.data)
		x := r.Xfer()
		tc.run(x)
		if x.Err() == nil || errors.Is(x.Err(), ErrTruncated) != tc.truncated {
			t.Errorf("%s: err %v (want truncation: %v)", name, x.Err(), tc.truncated)
		}
		first := x.Err()
		x.Fail(errors.New("later"))
		var n int
		if x.Int(&n); n != 0 || x.Err() != first {
			t.Errorf("%s: after the failure read %d, err %v; want 0 and the first error", name, n, x.Err())
		}
	}
	n := 5
	x := NewWriter().Xfer()
	x.Count(&n, 1, "c")
	x.Fail(errors.New("ignored"))
	if x.Decoding() || x.Err() != nil || n != 5 {
		t.Errorf("encoding: Decoding %v, err %v, count rewritten to %d", x.Decoding(), x.Err(), n)
	}
}
