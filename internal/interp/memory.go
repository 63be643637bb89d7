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
	"sync"
	"sync/atomic"

	"clustersmt/internal/prog"
)

const (
	pageShift = 12 // 4 KiB pages
	pageBytes = 1 << pageShift
	pageWords = pageBytes / prog.WordSize
)

// Memory is a sparse, paged, word-granular shared address space.
//
// The page table itself is goroutine-safe (guarded by mu), but the
// Memory's own Load/Store/Swap share one last-touched-page cache and
// must stay on a single goroutine. Concurrent executors give each
// thread its own View, whose private cache makes word accesses
// lock-free after the first touch of a page; word-level data races are
// then the program's responsibility (the timing simulator's parallel
// mode orders racing accesses, see internal/core).
//
// Fork clones the address space copy-on-write: parent and child share
// page frames until either side first writes a shared page, at which
// point the writer privatizes its copy under the page-table lock.
// Because writers always privatize before writing, a shared frame is
// never mutated; stale cached pointers are invalidated through gen, a
// generation counter bumped by every Fork and every privatization.
type Memory struct {
	mu    sync.RWMutex
	pages map[int64]*[pageWords]uint64
	cow   map[int64]struct{} // page numbers whose frame is shared with another Memory
	gen   atomic.Uint64      // bumped on Fork and on every copy-on-write break

	// Last-touched page, so sequential and strided access streams skip
	// the paged-map lookup entirely. lastW records whether the cached
	// frame was obtained for writing (i.e. is known private); lastGen is
	// the gen value the cache was filled under.
	lastPN  int64
	lastPG  *[pageWords]uint64
	lastW   bool
	lastGen uint64
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[int64]*[pageWords]uint64), lastPN: -1}
}

// LoadImage installs a program's initial data segment, copying each run
// of the image a page at a time. Only pages holding a present word are
// allocated — one holding nothing but explicit zeros included.
func (m *Memory) LoadImage(p *prog.Program) {
	p.Init.Runs(func(addr int64, vals []uint64) {
		for len(vals) > 0 {
			n := copy(m.page(addr, true)[(addr%pageBytes)/prog.WordSize:], vals)
			vals = vals[n:]
			addr += int64(n) * prog.WordSize
		}
	})
}

// Fork returns a copy-on-write clone of the address space. Every
// currently allocated frame becomes shared between parent and child;
// the first write to a shared page on either side privatizes it there.
// Fork must not race with accesses to m (the simulator only forks a
// paused instance).
func (m *Memory) Fork() *Memory {
	m.mu.Lock()
	defer m.mu.Unlock()
	child := &Memory{
		pages:  make(map[int64]*[pageWords]uint64, len(m.pages)),
		cow:    make(map[int64]struct{}, len(m.pages)),
		lastPN: -1,
	}
	if m.cow == nil {
		m.cow = make(map[int64]struct{}, len(m.pages))
	}
	for pn, pg := range m.pages {
		child.pages[pn] = pg
		child.cow[pn] = struct{}{}
		m.cow[pn] = struct{}{}
	}
	m.gen.Add(1) // cached frame pointers are no longer known-private
	return child
}

// lookup returns the page frame for page number pn. When write is set
// the returned frame is private and writable: a missing page is
// allocated and a copy-on-write page is privatized first. For reads a
// shared frame may be returned; it is immutable until privatized, and
// privatization never mutates the old frame, so a read-cached pointer
// only goes stale (missing later writes), which gen detects.
func (m *Memory) lookup(pn int64, write bool) *[pageWords]uint64 {
	m.mu.RLock()
	pg := m.pages[pn]
	shared := false
	if write && pg != nil && m.cow != nil {
		_, shared = m.cow[pn]
	}
	m.mu.RUnlock()
	if !write || (pg != nil && !shared) {
		return pg
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	pg = m.pages[pn]
	switch {
	case pg == nil:
		pg = new([pageWords]uint64)
		m.pages[pn] = pg
	default:
		if _, s := m.cow[pn]; s {
			cp := *pg
			pg = &cp
			m.pages[pn] = pg
			delete(m.cow, pn)
			m.gen.Add(1)
		}
	}
	return pg
}

func (m *Memory) page(addr int64, write bool) *[pageWords]uint64 {
	pn := addr >> pageShift
	if g := m.gen.Load(); g != m.lastGen {
		m.lastGen, m.lastPN, m.lastPG = g, -1, nil
	}
	if pn == m.lastPN && (!write || m.lastW) {
		return m.lastPG
	}
	pg := m.lookup(pn, write)
	if pg != nil {
		m.lastPN, m.lastPG, m.lastW = pn, pg, write
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
func (m *Memory) Load(addr int64) uint64 {
	checkAligned(addr)
	pg := m.page(addr, false)
	if pg == nil {
		return 0
	}
	return pg[(addr%pageBytes)/prog.WordSize]
}

// Store writes the word at addr.
func (m *Memory) Store(addr int64, v uint64) {
	checkAligned(addr)
	m.page(addr, true)[(addr%pageBytes)/prog.WordSize] = v
}

// Swap atomically exchanges the word at addr with v, returning the old
// value. (Atomicity is trivial in the single-goroutine simulator; the
// method exists so call sites document their intent.)
func (m *Memory) Swap(addr int64, v uint64) uint64 {
	old := m.Load(addr)
	m.Store(addr, v)
	return old
}

// Pages reports how many pages have been touched (diagnostics).
func (m *Memory) Pages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// View is a per-goroutine handle on a shared Memory: it carries its own
// last-touched-page cache, so concurrent threads never contend except
// on the first touch of a freshly allocated page. Obtain one with
// NewView; the zero value is not usable.
type View struct {
	mem    *Memory
	lastPN int64
	lastPG *[pageWords]uint64
	lastW  bool
	gen    uint64
}

// NewView returns a fresh view of the address space.
func (m *Memory) NewView() View { return View{mem: m, lastPN: -1, gen: m.gen.Load()} }

func (v *View) page(addr int64, write bool) *[pageWords]uint64 {
	pn := addr >> pageShift
	if g := v.mem.gen.Load(); g != v.gen {
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
// Atomicity with respect to other views is the caller's job: the
// timing simulator orders all granted sync operations (see
// internal/core), so by the time Swap executes it has exclusive use of
// the word.
func (v *View) Swap(addr int64, val uint64) uint64 {
	old := v.Load(addr)
	v.Store(addr, val)
	return old
}
