package interp

import (
	"fmt"
	"math"

	"clustersmt/internal/snap"
)

// This file holds the checkpoint support for the functional front end:
// raw page-image encoding for Memory and architectural-state encoding
// for Thread. Each XferSnap lists its fields once (snap.Xfer runs the
// list in either direction); the envelope version in internal/core
// guards layout changes.

// XferSnap transfers the full page image: the count of present pages,
// then each page's number and words in ascending page order. Decoding
// installs the pages into m, which must be freshly created, and refuses
// a page number outside the address space or out of order.
func (m *Memory) XferSnap(x *snap.Xfer) {
	n := 0
	for _, pg := range m.pages {
		if pg != nil {
			n++
		}
	}
	x.Count(&n, math.MaxInt, "interp: memory pages")
	if !x.Decoding() {
		for pn, pg := range m.pages {
			if pg != nil {
				pn := int64(pn)
				x.I64(&pn)
				x.U64s(pg[:])
			}
		}
		return
	}
	for last := int64(-1); n > 0 && x.Err() == nil; n-- {
		var pn int64
		if x.I64(&pn); pn <= last || pn >= maxPages {
			x.Fail(fmt.Errorf("interp: memory page %d out of order or outside the address space", pn))
			return
		}
		x.U64s(m.lookup(pn, true)[:])
		last = pn
	}
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
