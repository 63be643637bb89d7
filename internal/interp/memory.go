// Package interp is the functional front end of the simulator: it
// executes programs instruction-by-instruction over a shared memory
// image and yields the dynamic-instruction events that the timing back
// end consumes. It plays the role MINT played for the paper's
// simulator: the back end never recomputes values, it only times them.
// Instructions are decoded once, when the program is built
// (prog.Program.Decoded); Thread.Next reads the slot at a thread's PC
// and Thread.Exec executes it, once per dynamic instruction, into a
// record the caller owns — at fetch, the timing core's window entry.
package interp

import (
	"fmt"

	"clustersmt/internal/prog"
)

const (
	pageShift = 12 // 4 KiB pages
	pageBytes = 1 << pageShift
	pageWords = pageBytes / prog.WordSize
)

// Memory is a sparse, paged, word-granular address space. It is used
// by one goroutine at a time and takes no locks. Each thread reads and
// writes through its own View, whose last-touched-page cache skips the
// page-table lookup on sequential and strided streams; the Memory's
// own Load, Store and Swap go through its own View, self.
//
// Fork clones the address space copy-on-write: parent and child share
// page frames until either side first writes a shared page, which the
// writer privatizes first. A shared frame is thus never mutated, so a
// forked parent and child may run on different goroutines. gen, bumped
// by every Fork and every privatization, tells a view that a frame it
// cached may have been privatized since, by another view or a Fork.
type Memory struct {
	pages map[int64]*[pageWords]uint64
	cow   map[int64]struct{} // page numbers whose frame is shared with another Memory
	gen   uint64             // bumped on Fork and on every copy-on-write break
	self  View
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	m := &Memory{pages: make(map[int64]*[pageWords]uint64)}
	m.self = m.NewView()
	return m
}

// LoadImage installs a program's initial data segment, copying each run
// of the image a page at a time. Only pages holding a present word are
// allocated — one holding nothing but explicit zeros included.
func (m *Memory) LoadImage(p *prog.Program) {
	p.Init.Runs(func(addr int64, vals []uint64) {
		for len(vals) > 0 {
			n := copy(m.self.page(addr, true)[(addr%pageBytes)/prog.WordSize:], vals)
			vals = vals[n:]
			addr += int64(n) * prog.WordSize
		}
	})
}

// Fork returns a copy-on-write clone of the address space. Every
// currently allocated frame becomes shared between parent and child;
// the first write to a shared page on either side privatizes it there.
// Fork must not race with accesses to m, nor with another Fork of m
// (the simulator only forks a paused instance).
func (m *Memory) Fork() *Memory {
	child := &Memory{
		pages: make(map[int64]*[pageWords]uint64, len(m.pages)),
		cow:   make(map[int64]struct{}, len(m.pages)),
	}
	child.self = child.NewView()
	if m.cow == nil {
		m.cow = make(map[int64]struct{}, len(m.pages))
	}
	for pn, pg := range m.pages {
		child.pages[pn] = pg
		child.cow[pn] = struct{}{}
		m.cow[pn] = struct{}{}
	}
	m.gen++ // cached frame pointers are no longer known-private
	return child
}

// lookup returns the page frame for page number pn. When write is set
// the returned frame is private and writable: a missing page is
// allocated and a copy-on-write page is privatized first. For reads a
// shared frame may be returned; it is immutable until privatized, and
// privatization never mutates the old frame, so a read-cached pointer
// only goes stale (missing later writes), which gen detects.
func (m *Memory) lookup(pn int64, write bool) *[pageWords]uint64 {
	pg := m.pages[pn]
	if !write {
		return pg
	}
	if pg == nil {
		pg = new([pageWords]uint64)
		m.pages[pn] = pg
	} else if _, shared := m.cow[pn]; shared {
		cp := *pg
		pg = &cp
		m.pages[pn] = pg
		delete(m.cow, pn)
		m.gen++
	}
	return pg
}

func checkAligned(addr int64) {
	if addr%prog.WordSize != 0 {
		panic(fmt.Sprintf("interp: unaligned access at %#x", addr))
	}
	if addr < 0 {
		panic(fmt.Sprintf("interp: negative address %#x", addr))
	}
}

// Load returns the word at addr (zero if never written). Panics on
// unaligned or negative addresses: those are always kernel bugs.
func (m *Memory) Load(addr int64) uint64 { return m.self.Load(addr) }

// View is a per-thread handle on a Memory: it carries its own
// last-touched-page cache, so each thread's access stream keeps its
// own locality. Obtain one with NewView; the zero value is not usable.
type View struct {
	mem    *Memory
	lastPN int64
	lastPG *[pageWords]uint64
	lastW  bool
	gen    uint64
}

// NewView returns a fresh view of the address space.
func (m *Memory) NewView() View { return View{mem: m, lastPN: -1, gen: m.gen} }

func (v *View) page(addr int64, write bool) *[pageWords]uint64 {
	pn := addr >> pageShift
	if g := v.mem.gen; g != v.gen {
		v.gen, v.lastPN, v.lastPG = g, -1, nil
	}
	if pn == v.lastPN && (!write || v.lastW) {
		return v.lastPG
	}
	pg := v.mem.lookup(pn, write)
	if pg != nil {
		v.lastPN, v.lastPG, v.lastW = pn, pg, write
	}
	return pg
}

// Load returns the word at addr (zero if never written).
func (v *View) Load(addr int64) uint64 {
	checkAligned(addr)
	pg := v.page(addr, false)
	if pg == nil {
		return 0
	}
	return pg[(addr%pageBytes)/prog.WordSize]
}

// Store writes the word at addr.
func (v *View) Store(addr int64, val uint64) {
	checkAligned(addr)
	v.page(addr, true)[(addr%pageBytes)/prog.WordSize] = val
}

// Swap exchanges the word at addr with val, returning the old value.
// (Atomicity is trivial on one goroutine; the method exists so call
// sites document their intent.)
func (v *View) Swap(addr int64, val uint64) uint64 {
	old := v.Load(addr)
	v.Store(addr, val)
	return old
}
