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
	"slices"

	"clustersmt/internal/prog"
)

const (
	pageShift = 12 // 4 KiB pages
	pageBytes = 1 << pageShift
	pageWords = pageBytes / prog.WordSize
)

// Memory is a paged, word-granular address space of maxPages 4 KiB
// pages (4 GiB). It is used by one goroutine at a time and takes no
// locks. A page is found in a table indexed by page number — the data
// segment starts at prog.DataBase and the stacks sit right above it, so
// the table is dense — which grows by doubling to the highest page
// written. Each thread reads and writes through its own View.
//
// Fork clones the address space copy-on-write: parent and child share
// page frames until either side first writes a shared page, which the
// writer privatizes first. A shared frame is thus never mutated, so a
// forked parent and child may run on different goroutines. cow, a
// bitset beside the table, marks the pages whose frame is shared.
//
// Nothing on the access path writes a pointer into the heap: reads and
// writes of a present, private page only index the two tables.
type Memory struct {
	pages []*[pageWords]uint64 // by page number; nil = never written
	cow   []uint64             // bit pn: pages[pn] is shared with another Memory
}

// maxPages bounds the address space; a wider address is a kernel bug
// (and a corrupt checkpoint's page number is refused, not allocated).
const maxPages = 1 << 20

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{} }

// LoadImage installs a program's initial data segment, copying each run
// of the image a page at a time. Only pages holding a present word are
// allocated — one holding nothing but explicit zeros included.
func (m *Memory) LoadImage(p *prog.Program) {
	p.Init.Runs(func(addr int64, vals []uint64) {
		for len(vals) > 0 {
			checkAddr(addr)
			n := copy(m.lookup(addr>>pageShift, true)[(addr%pageBytes)/prog.WordSize:], vals)
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
	for pn, pg := range m.pages {
		if pg != nil {
			m.cow[pn>>6] |= 1 << (pn & 63)
		}
	}
	return &Memory{pages: slices.Clone(m.pages), cow: slices.Clone(m.cow)}
}

// shared reports whether page pn's frame is shared with another Memory.
func (m *Memory) shared(pn int64) bool { return m.cow[pn>>6]&(1<<(pn&63)) != 0 }

// lookup returns the page frame for page number pn, off the fast path
// of page. When write is set the returned frame is private and
// writable: a missing page is allocated (growing the table) and a
// copy-on-write page is privatized first. For reads a shared frame may
// be returned; it is immutable until privatized.
func (m *Memory) lookup(pn int64, write bool) *[pageWords]uint64 {
	if pn >= int64(len(m.pages)) {
		if !write {
			return nil
		}
		n := max(64, len(m.pages))
		for int64(n) <= pn {
			n *= 2
		}
		m.pages = append(m.pages, make([]*[pageWords]uint64, n-len(m.pages))...)
		m.cow = append(m.cow, make([]uint64, n/64-len(m.cow))...)
	}
	pg := m.pages[pn]
	if !write {
		return pg
	}
	if pg == nil {
		pg = new([pageWords]uint64)
		m.pages[pn] = pg
	} else if m.shared(pn) {
		cp := *pg
		pg = &cp
		m.pages[pn] = pg
		m.cow[pn>>6] &^= 1 << (pn & 63)
	}
	return pg
}

// checkAddr panics on an unaligned address or one outside the address
// space: those are always kernel bugs.
func checkAddr(addr int64) {
	if addr%prog.WordSize != 0 {
		panic(fmt.Sprintf("interp: unaligned access at %#x", addr))
	}
	if uint64(addr) >= maxPages*pageBytes {
		panic(fmt.Sprintf("interp: address %#x outside the address space", addr))
	}
}

// Load returns the word at addr (zero if never written). Panics on
// unaligned addresses and on those outside the address space.
func (m *Memory) Load(addr int64) uint64 { return m.NewView().Load(addr) }

// View is a per-thread handle on a Memory. Obtain one with NewView;
// the zero value is not usable.
type View struct {
	mem *Memory
}

// NewView returns a fresh view of the address space.
func (m *Memory) NewView() View { return View{mem: m} }

// page returns the frame holding addr, private when write is set, or
// nil for a read of a page never written. A present page, private or
// read, costs two table reads.
func (v View) page(addr int64, write bool) *[pageWords]uint64 {
	m := v.mem
	pn := addr >> pageShift
	if uint64(pn) < uint64(len(m.pages)) {
		if pg := m.pages[pn]; pg != nil && (!write || !m.shared(pn)) {
			return pg
		}
	}
	return m.lookup(pn, write)
}

// Load returns the word at addr (zero if never written).
func (v View) Load(addr int64) uint64 {
	checkAddr(addr)
	pg := v.page(addr, false)
	if pg == nil {
		return 0
	}
	return pg[(addr%pageBytes)/prog.WordSize]
}

// Store writes the word at addr.
func (v View) Store(addr int64, val uint64) {
	checkAddr(addr)
	v.page(addr, true)[(addr%pageBytes)/prog.WordSize] = val
}

// Swap exchanges the word at addr with val, returning the old value.
// (Atomicity is trivial on one goroutine; the method exists so call
// sites document their intent.)
func (v View) Swap(addr int64, val uint64) uint64 {
	old := v.Load(addr)
	v.Store(addr, val)
	return old
}
