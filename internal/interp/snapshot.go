package interp

import (
	"fmt"

	"clustersmt/internal/snap"
)

// This file holds the checkpoint support for the functional front end:
// raw page-image encoding for Memory and architectural-state encoding
// for Thread. Each XferSnap lists its fields once (snap.Xfer runs the
// list in either direction); the envelope version in internal/core
// guards layout changes.

// XferSnap transfers the full page image, sorted by page number for a
// stable byte stream. Decoding installs the pages into m, which must be
// freshly created (existing pages are not cleared).
func (m *Memory) XferSnap(x *snap.Xfer) {
	if !x.Decoding() {
		m.mu.RLock()
		defer m.mu.RUnlock()
	}
	snap.Map(x, m.pages, "interp: memory pages", func(pg **[pageWords]uint64) {
		if x.Decoding() {
			*pg = new([pageWords]uint64)
		}
		x.U64s((*pg)[:])
	})
}

// XferSnap transfers the thread's architectural state: PC, register
// files, halt flag and retired-instruction count. A decoded PC is
// validated against the thread's program; everything else is opaque
// register content.
func (t *Thread) XferSnap(x *snap.Xfer) {
	pc := t.PC
	x.I64(&pc)
	x.U64s(t.Int[:])
	snap.Each(t.FP[:], x.F64)
	x.Bool(&t.Halted)
	x.U64(&t.Retired)
	if x.Err() != nil {
		return
	}
	// A halted thread's PC legitimately rests one past the instruction
	// that halted it; a running thread's must address real code.
	limit := int64(len(t.Prog.Code))
	if !t.Halted {
		limit--
	}
	if pc < 0 || pc > limit {
		x.Fail(fmt.Errorf("interp: thread %d: restored PC %d out of range", t.ID, pc))
		return
	}
	t.PC = pc
}
