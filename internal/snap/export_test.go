package snap

// A length-prefixed string codec, for the round-trip tests: no section
// encodes a string.

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// String reads a length-prefixed UTF-8 string.
func (r *Reader) String() string { return string(r.Bytes8()) }
