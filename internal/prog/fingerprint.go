package prog

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// fingerprintVersion is folded into every program hash so the hash
// changes if the encoding below ever does.
const fingerprintVersion = "clustersmt.Program/v2"

// Fingerprint returns a hash over everything about the program that can
// influence execution: the full code image, the entry PC, the data
// segment bound (which places thread stacks) and the initial memory
// image. The name and symbol table are deliberately excluded — two
// programs that differ only in labels behave identically.
//
// The hash is computed on the first call and remembered: a Program is
// immutable once hashed (see Program.Init).
func (p *Program) Fingerprint() [32]byte {
	p.fpOnce.Do(func() { p.fp = p.hashCode(len(p.Code)) })
	return p.fp
}

// PrefixKey returns a hash identifying the program's warm-up prefix:
// the first PrefixLen code slots plus the entry PC, data bound and full
// initial memory image. Two programs with equal PrefixKeys execute
// identically for as long as no PC at or beyond the prefix has been
// fetched or read (the simulator tracks that bound as its PC high
// water mark). ok is false when no prefix was declared. Like
// Fingerprint, the key is computed once per Program.
func (p *Program) PrefixKey() (key [32]byte, ok bool) {
	if p.PrefixLen <= 0 || p.PrefixLen > len(p.Code) {
		return key, false
	}
	p.pkOnce.Do(func() { p.pk = p.hashCode(p.PrefixLen) })
	return p.pk, true
}

// digestWriter batches the fixed-width fields of a program digest into
// large SHA-256 writes; the byte stream is what one Write per field
// would produce.
type digestWriter struct {
	h   hash.Hash
	buf []byte
}

// room flushes when fewer than n bytes of buffer are left.
func (w *digestWriter) room(n int) {
	if len(w.buf)+n > cap(w.buf) {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *digestWriter) u64(v uint64) {
	w.room(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// u64s encodes vals back to back, a buffer-full at a time.
func (w *digestWriter) u64s(vals []uint64) {
	for len(vals) > 0 {
		w.room(8)
		free := w.buf[len(w.buf):cap(w.buf)]
		n := min(len(vals), len(free)/8)
		for k, v := range vals[:n] {
			binary.LittleEndian.PutUint64(free[8*k:], v)
		}
		w.buf = w.buf[:len(w.buf)+8*n]
		vals = vals[n:]
	}
}

// repeatFlag marks a repeated extent's word count in the digest stream.
// No real count reaches bit 63, so a dense run and a repeated extent can
// never encode to the same bytes.
const repeatFlag = 1 << 63

// hashCode digests the first n code slots and the rest of the program's
// execution-relevant state. The initial image streams out straight from
// its extents in address order: each maximal run of a dense extent as
// its address, its word count, then its words; each repeated extent as
// its address, its word count with repeatFlag set, its period's length,
// then the period's words. An image without repeated extents therefore
// hashes exactly as in v2. It freezes Init: the digest is about to be
// remembered, so the image may no longer change.
func (p *Program) hashCode(n int) [32]byte {
	p.Init.freeze(p.Name)
	w := digestWriter{h: sha256.New(), buf: make([]byte, 0, 16<<10)}
	w.buf = append(w.buf, fingerprintVersion...)
	w.u64(uint64(n))
	for _, in := range p.Code[:n] {
		w.room(7)
		w.buf = append(w.buf, byte(in.Op), byte(in.RD), byte(in.RS1), byte(in.RS2),
			byte(in.FD), byte(in.FS1), byte(in.FS2))
		w.u64(uint64(in.Imm))
	}
	w.u64(uint64(p.Entry))
	w.u64(uint64(p.DataEnd))
	w.u64(uint64(p.Init.Len()))
	p.Init.extents(func(addr int64, vals []uint64) {
		w.u64(uint64(addr))
		w.u64(uint64(len(vals)))
		w.u64s(vals)
	}, func(addr, count int64, period []uint64) {
		w.u64(uint64(addr))
		w.u64(uint64(count) | repeatFlag)
		w.u64(uint64(len(period)))
		w.u64s(period)
	})
	w.h.Write(w.buf)
	var out [32]byte
	w.h.Sum(out[:0])
	return out
}

// hashCode covers every isa.Instr field; adding a field to isa.Instr
// must extend the loop above and bump fingerprintVersion.
