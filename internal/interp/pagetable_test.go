package interp

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"clustersmt/internal/snap"
)

// mapMemory is the address space by definition: a page-number→frame map
// with a copy-on-write set beside it, and views that cache the last
// page they touched, told by gen — bumped on every Fork and every
// privatization — that a cached frame may have been privatized since.
// Memory's page table and cow bitset are driven against it.
type mapMemory struct {
	pages map[int64]*[pageWords]uint64
	cow   map[int64]struct{}
	gen   uint64
}

func newMapMemory() *mapMemory { return &mapMemory{pages: map[int64]*[pageWords]uint64{}} }

func (m *mapMemory) Fork() *mapMemory {
	child := &mapMemory{pages: map[int64]*[pageWords]uint64{}, cow: map[int64]struct{}{}}
	if m.cow == nil {
		m.cow = map[int64]struct{}{}
	}
	for pn, pg := range m.pages {
		child.pages[pn] = pg
		child.cow[pn] = struct{}{}
		m.cow[pn] = struct{}{}
	}
	m.gen++
	return child
}

func (m *mapMemory) lookup(pn int64, write bool) *[pageWords]uint64 {
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

// encode is the page image's checkpoint bytes as the map wrote them: a
// count, then each page's number and words in ascending page order.
func (m *mapMemory) encode() []byte {
	w := snap.NewWriter()
	w.Int(len(m.pages))
	pns := make([]int64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	for _, pn := range pns {
		w.I64(pn)
		for _, v := range m.pages[pn] {
			w.U64(v)
		}
	}
	return w.Bytes()
}

type mapView struct {
	mem    *mapMemory
	lastPN int64
	lastPG *[pageWords]uint64
	lastW  bool
	gen    uint64
}

func (m *mapMemory) NewView() *mapView { return &mapView{mem: m, lastPN: -1, gen: m.gen} }

func (v *mapView) page(addr int64, write bool) *[pageWords]uint64 {
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

func (v *mapView) Load(addr int64) uint64 {
	if pg := v.page(addr, false); pg != nil {
		return pg[(addr%pageBytes)/8]
	}
	return 0
}

func (v *mapView) Store(addr int64, val uint64) { v.page(addr, true)[(addr%pageBytes)/8] = val }

// TestPageTableMapDifferential drives a family of Memories, forked from
// one another, and the same family of map memories with one seeded
// stream of loads, stores and forks through several views each. Views
// outlive the forks and privatizations that made their cached frames
// stale in the map memory, which is what its gen rule is for. After
// every op each pair must agree on every loaded word, on which pages
// are present and which are shared (the cow bitset against the cow
// set) and on which frames two memories share; every 500th op, and
// after the last, also on every word and on the checkpoint bytes, which
// a decoded copy must re-encode to.
func TestPageTableMapDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := int64(1 + rng.Intn(300)) // pages in play, across table doublings
		fast, ref := []*Memory{NewMemory()}, []*mapMemory{newMapMemory()}
		fv, rv := [][]View{{fast[0].NewView()}}, [][]*mapView{{ref[0].NewView()}}
		forks := 0
		for op := 0; op < 4000; op++ {
			i := rng.Intn(len(fast))
			v := rng.Intn(len(fv[i]))
			addr := (span/2+int64(rng.NormFloat64()*float64(span)/4))%span*pageBytes + int64(rng.Intn(4))*8
			addr = max(addr, 0)
			what := fmt.Sprintf("seed %d op %d memory %d view %d addr %#x", seed, op, i, v, addr)
			switch k := rng.Intn(20); {
			case k < 9:
				if a, b := fv[i][v].Load(addr), rv[i][v].Load(addr); a != b {
					t.Fatalf("%s: load %d, map %d", what, a, b)
				}
			case k < 17:
				val := rng.Uint64()
				fv[i][v].Store(addr, val)
				rv[i][v].Store(addr, val)
			case k < 19:
				fv[i] = append(fv[i], fast[i].NewView())
				rv[i] = append(rv[i], ref[i].NewView())
			default:
				if len(fast) < 6 {
					forks++
					fast, ref = append(fast, fast[i].Fork()), append(ref, ref[i].Fork())
					fv = append(fv, []View{fast[len(fast)-1].NewView()})
					rv = append(rv, []*mapView{ref[len(ref)-1].NewView()})
				}
			}
			comparePageTables(t, what, fast, ref, op%500 == 0 || op == 3999)
		}
		if forks == 0 {
			t.Errorf("seed %d: no fork in the stream", seed)
		}
	}
}

// comparePageTables compares each pair's page presence, sharing and
// frame identity; full adds every word and the checkpoint bytes.
func comparePageTables(t *testing.T, what string, fast []*Memory, ref []*mapMemory, full bool) {
	t.Helper()
	for i, m := range fast {
		r := ref[i]
		n := 0
		for pn, pg := range m.pages {
			if pg == nil {
				if m.shared(int64(pn)) {
					t.Fatalf("%s: memory %d: absent page %d marked shared", what, i, pn)
				}
				continue
			}
			n++
			rp := r.pages[int64(pn)]
			if rp == nil || (full && *rp != *pg) {
				t.Fatalf("%s: memory %d: page %d present or its words differ from the map's", what, i, pn)
			}
			if _, shared := r.cow[int64(pn)]; shared != m.shared(int64(pn)) {
				t.Fatalf("%s: memory %d: page %d shared %v, map %v", what, i, pn, m.shared(int64(pn)), shared)
			}
			for j := range i {
				if (int64(pn) < int64(len(fast[j].pages)) && fast[j].pages[pn] == pg) != (ref[j].pages[int64(pn)] == rp) {
					t.Fatalf("%s: memories %d and %d: page %d frame sharing differs from the map's", what, j, i, pn)
				}
			}
		}
		if n != len(r.pages) {
			t.Fatalf("%s: memory %d: %d pages present, map %d", what, i, n, len(r.pages))
		}
		if !full {
			continue
		}
		w := snap.NewWriter()
		m.XferSnap(w.Xfer())
		if !bytes.Equal(w.Bytes(), r.encode()) {
			t.Fatalf("%s: memory %d: checkpoint bytes differ from the map's", what, i)
		}
		got := NewMemory()
		rd := snap.NewReader(w.Bytes())
		got.XferSnap(rd.Xfer())
		w2 := snap.NewWriter()
		got.XferSnap(w2.Xfer())
		if rd.Err() != nil || rd.Remaining() != 0 || !bytes.Equal(w.Bytes(), w2.Bytes()) {
			t.Fatalf("%s: memory %d: decoded copy (%v, %d bytes left) re-encodes differently", what, i, rd.Err(), rd.Remaining())
		}
	}
}

// TestPageTableRefusesBadPages checks that decoding refuses a page
// number outside the address space or out of ascending order rather
// than allocate a table for it.
func TestPageTableRefusesBadPages(t *testing.T) {
	for name, pns := range map[string][]int64{
		"negative":         {-1},
		"past the end":     {maxPages},
		"far past the end": {1 << 50},
		"repeated":         {3, 3},
		"descending":       {5, 4},
	} {
		w := snap.NewWriter()
		w.Int(len(pns))
		for _, pn := range pns {
			w.I64(pn)
			for range pageWords {
				w.U64(1)
			}
		}
		m := NewMemory()
		r := snap.NewReader(w.Bytes())
		if m.XferSnap(r.Xfer()); r.Err() == nil {
			t.Errorf("%s: page numbers %v decoded", name, pns)
		}
		if len(m.pages) > 64 {
			t.Errorf("%s: decoding grew the table to %d pages", name, len(m.pages))
		}
	}
}
