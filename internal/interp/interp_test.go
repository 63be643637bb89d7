package interp

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
	"clustersmt/internal/snap"
)

func buildAndRun(t *testing.T, build func(b *prog.Builder)) (*Thread, *Memory) {
	t.Helper()
	b := prog.NewBuilder("t")
	build(b)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	mem.LoadImage(p)
	th := NewThread(0, p, mem)
	var d DynInstr
	for !th.Halted {
		th.Exec(&d)
		if th.Retired > 1_000_000 {
			t.Fatal("runaway program")
		}
	}
	return th, mem
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Store(0x1000, 42)
	if got := m.Load(0x1000); got != 42 {
		t.Fatalf("load = %d", got)
	}
	if got := m.Load(0x2000); got != 0 {
		t.Fatalf("untouched load = %d, want 0", got)
	}
}

func TestMemoryUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on unaligned store")
		}
	}()
	NewMemory().Store(3, 1)
}

func TestMemorySwap(t *testing.T) {
	m := NewMemory()
	m.Store(64, 7)
	if old := m.Swap(64, 9); old != 7 {
		t.Fatalf("swap old = %d", old)
	}
	if got := m.Load(64); got != 9 {
		t.Fatalf("after swap = %d", got)
	}
}

func TestMemoryPropertyLastWriteWins(t *testing.T) {
	m := NewMemory()
	f := func(addrs []uint16, vals []uint64) bool {
		last := map[int64]uint64{}
		for i, a := range addrs {
			if i >= len(vals) {
				break
			}
			addr := int64(a) * 8
			m.Store(addr, vals[i])
			last[addr] = vals[i]
		}
		for a, v := range last {
			if m.Load(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMemoryForkCopyOnWrite pins the copy-on-write contract of Fork:
// each side's writes after a fork stay its own; a view that read or
// wrote a page sees it privatized by another view, and shared again by
// a fork; and a forked parent and child may write their shared
// pages on two goroutines at once (run under -race by make race).
func TestMemoryForkCopyOnWrite(t *testing.T) {
	const pages = 8
	addr := func(pg, w int64) int64 { return pg*pageBytes + w*prog.WordSize }
	parent := NewMemory()
	for pg := int64(0); pg < pages; pg++ {
		parent.Store(addr(pg, 0), uint64(100+pg))
	}

	// Writes after a fork stay on the side that made them.
	child := parent.Fork()
	child.Store(addr(0, 0), 1)
	parent.Store(addr(1, 0), 2)
	for _, c := range []struct {
		m    *Memory
		name string
		a    int64
		want uint64
	}{
		{parent, "parent", addr(0, 0), 100}, {parent, "parent", addr(1, 0), 2},
		{child, "child", addr(0, 0), 1}, {child, "child", addr(1, 0), 101},
	} {
		if got := c.m.Load(c.a); got != c.want {
			t.Fatalf("%s: word %#x = %d, want %d", c.name, c.a, got, c.want)
		}
	}

	// A shared page one view has read is privatized by another view's
	// write; the reader sees the write.
	reader, writer := child.NewView(), child.NewView()
	if got := reader.Load(addr(2, 0)); got != 102 {
		t.Fatalf("reader: %d, want 102", got)
	}
	writer.Store(addr(2, 0), 3)
	if got := reader.Load(addr(2, 0)); got != 3 {
		t.Fatalf("reader missed another view's write after privatization: %d, want 3", got)
	}
	if got := parent.Load(addr(2, 0)); got != 102 {
		t.Fatalf("child's write reached the parent: %d, want 102", got)
	}

	// A page written through a view is shared again after a fork; the
	// next write through that view must privatize it, not reach the
	// child. (The first store privatizes page 3, which the first fork
	// shared; the second writes the private frame.)
	wv := parent.NewView()
	wv.Store(addr(3, 0), 4)
	wv.Store(addr(3, 1), 4)
	second := parent.Fork()
	wv.Store(addr(3, 0), 5)
	if got := second.Load(addr(3, 0)); got != 4 {
		t.Fatalf("a write cached before the fork reached the child: %d, want 4", got)
	}

	// Parent and child write every shared page on two goroutines.
	third := parent.Fork()
	var wg sync.WaitGroup
	for i, m := range []*Memory{parent, third} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := m.NewView()
			for pg := int64(0); pg < pages; pg++ {
				for w := int64(0); w < 4; w++ {
					v.Store(addr(pg, w), uint64(1000*(i+1))+uint64(pg))
				}
			}
		}()
	}
	wg.Wait()
	for i, m := range []*Memory{parent, third} {
		for pg := int64(0); pg < pages; pg++ {
			if got, want := m.Load(addr(pg, 3)), uint64(1000*(i+1))+uint64(pg); got != want {
				t.Fatalf("memory %d page %d: %d, want %d", i, pg, got, want)
			}
		}
	}
	if got := second.Load(addr(3, 0)); got != 4 {
		t.Fatalf("concurrent writes reached a sibling fork: %d, want 4", got)
	}
}

func TestArithmetic(t *testing.T) {
	th, _ := buildAndRun(t, func(b *prog.Builder) {
		b.Li(1, 20)
		b.Li(2, 3)
		b.Add(3, 1, 2)   // 23
		b.Sub(4, 1, 2)   // 17
		b.Mul(5, 1, 2)   // 60
		b.Div(6, 1, 2)   // 6
		b.Rem(7, 1, 2)   // 2
		b.Slt(8, 2, 1)   // 1
		b.Shli(9, 2, 4)  // 48
		b.Shri(10, 1, 2) // 5
	})
	want := map[isa.Reg]uint64{3: 23, 4: 17, 5: 60, 6: 6, 7: 2, 8: 1, 9: 48, 10: 5}
	for r, v := range want {
		if th.Int[r] != v {
			t.Errorf("r%d = %d, want %d", r, th.Int[r], v)
		}
	}
}

func TestDivByZeroYieldsZero(t *testing.T) {
	th, _ := buildAndRun(t, func(b *prog.Builder) {
		b.Li(1, 5)
		b.Div(2, 1, 0)
		b.Rem(3, 1, 0)
	})
	if th.Int[2] != 0 || th.Int[3] != 0 {
		t.Errorf("div/rem by zero = %d/%d, want 0/0", th.Int[2], th.Int[3])
	}
}

func TestRegZeroIsImmutable(t *testing.T) {
	th, _ := buildAndRun(t, func(b *prog.Builder) {
		b.Li(0, 99)
		b.Addi(1, 0, 1)
	})
	if th.Int[0] != 0 {
		t.Fatalf("r0 = %d, want 0", th.Int[0])
	}
	if th.Int[1] != 1 {
		t.Fatalf("r1 = %d, want 1", th.Int[1])
	}
}

func TestLoopSum(t *testing.T) {
	// sum 0..9 via a counted loop.
	th, _ := buildAndRun(t, func(b *prog.Builder) {
		b.Li(1, 0)  // i
		b.Li(2, 10) // bound
		b.Li(3, 0)  // sum
		b.CountedLoop(1, 2, func() {
			b.Add(3, 3, 1)
		})
	})
	if th.Int[3] != 45 {
		t.Fatalf("sum = %d, want 45", th.Int[3])
	}
}

func TestFloatOps(t *testing.T) {
	th, _ := buildAndRun(t, func(b *prog.Builder) {
		b.Fli(1, 1.5)
		b.Fli(2, 2.0)
		b.Fadd(3, 1, 2) // 3.5
		b.Fsub(4, 2, 1) // 0.5
		b.Fmul(5, 1, 2) // 3.0
		b.Fdiv(6, 2, 1) // 1.333...
		b.Fneg(7, 1)    // -1.5
		b.Fcmp(8, 1, 2) // 1
		b.Li(9, 7)
		b.Fcvt(10, 9) // 7.0
	})
	checks := map[isa.Reg]float64{3: 3.5, 4: 0.5, 5: 3.0, 6: 2.0 / 1.5, 7: -1.5, 10: 7.0}
	for r, v := range checks {
		if math.Abs(th.FP[r]-v) > 1e-12 {
			t.Errorf("f%d = %g, want %g", r, th.FP[r], v)
		}
	}
	if th.Int[8] != 1 {
		t.Errorf("fcmp = %d, want 1", th.Int[8])
	}
}

func TestLoadStore(t *testing.T) {
	th, mem := buildAndRun(t, func(b *prog.Builder) {
		a := b.Global("a", 4)
		b.Li(1, 77)
		b.St(1, 0, a) // a[0] = 77
		b.Ld(2, 0, a) // r2 = 77
		b.Fli(3, 9.5)
		b.Stf(3, 0, a+8) // a[1] = 9.5
		b.Ldf(4, 0, a+8) // f4 = 9.5
	})
	if th.Int[2] != 77 {
		t.Errorf("r2 = %d", th.Int[2])
	}
	if th.FP[4] != 9.5 {
		t.Errorf("f4 = %g", th.FP[4])
	}
	if mem.Load(prog.DataBase) != 77 {
		t.Errorf("memory a[0] = %d", mem.Load(prog.DataBase))
	}
}

func TestJalJr(t *testing.T) {
	th, _ := buildAndRun(t, func(b *prog.Builder) {
		b.Jal(isa.RegRA, "fn") // call
		b.Li(2, 1)             // executed after return
		b.Jump("end")
		b.Label("fn")
		b.Li(1, 42)
		b.Jr(isa.RegRA)
		b.Label("end")
	})
	if th.Int[1] != 42 || th.Int[2] != 1 {
		t.Fatalf("r1=%d r2=%d, want 42,1", th.Int[1], th.Int[2])
	}
}

func TestDynInstrBranchEvents(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Li(1, 1)
	b.Beq(1, 0, "skip") // not taken
	b.Bne(1, 0, "skip") // taken
	b.Nop()             // skipped
	b.Label("skip")
	b.Halt()
	p := b.MustBuild()
	mem := NewMemory()
	th := NewThread(0, p, mem)

	var d DynInstr
	th.Exec(&d) // li
	th.Exec(&d)
	if d.Taken || d.PC != 1 || p.Decoded[d.PC].Flags&prog.IsCondBr == 0 {
		t.Fatalf("beq event wrong: %+v", d)
	}
	th.Exec(&d)
	if !d.Taken {
		t.Fatalf("bne should be taken: %+v", d)
	}
	if d.Target != 4 {
		t.Fatalf("bne target = %d, want 4", d.Target)
	}
}

func TestThreadStacksDisjoint(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Global("x", 1)
	b.Halt()
	p := b.MustBuild()
	mem := NewMemory()
	t0 := NewThread(0, p, mem)
	t1 := NewThread(1, p, mem)
	if t0.Int[isa.RegSP] == t1.Int[isa.RegSP] {
		t.Fatal("thread stacks overlap")
	}
	if t0.Int[isa.RegTID] != 0 || t1.Int[isa.RegTID] != 1 {
		t.Fatal("TID registers wrong")
	}
}

// TestExecOnHaltedPanics: a halted thread executes nothing more, even
// when its halt is not the program's last instruction (Next still finds
// a slot there).
func TestExecOnHaltedPanics(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Halt()
	b.Nop()
	b.Halt()
	p := b.MustBuild()
	th := NewThread(0, p, NewMemory())
	var d DynInstr
	th.Exec(&d)
	if !th.Halted || th.Next() == nil {
		t.Fatalf("halted=%v next=%v, want a halted thread with a slot at PC %d", th.Halted, th.Next(), th.PC)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	th.Exec(&d)
}

// TestNextOutsideProgram: a wild jump leaves Next nothing to return, on
// either side of the program.
func TestNextOutsideProgram(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Li(5, 100000)
	b.Jr(5)
	b.Halt()
	p := b.MustBuild()
	th := NewThread(0, p, NewMemory())
	var d DynInstr
	th.Exec(&d)
	th.Exec(&d)
	if d.Target != 100000 || th.Next() != nil {
		t.Fatalf("after jr: target %d, next %v; want 100000 and nil", d.Target, th.Next())
	}
	th.PC = -1
	if th.Next() != nil {
		t.Fatal("Next at PC -1 returned a slot")
	}
}

func TestSwapInstr(t *testing.T) {
	th, mem := buildAndRun(t, func(b *prog.Builder) {
		a := b.GlobalWords("l", []uint64{5})
		b.Li(1, 1)
		b.Swap(2, 0, 1, a) // r2 = old (5), mem = 1
	})
	if th.Int[2] != 5 {
		t.Errorf("swap old = %d", th.Int[2])
	}
	if mem.Load(prog.DataBase) != 1 {
		t.Errorf("after swap mem = %d", mem.Load(prog.DataBase))
	}
}

// TestLoadImageMatchesWordStores checks that the page-at-a-time loader
// leaves memory exactly as one Store per image word does: the same
// pages exist — a page holding nothing but explicit zeros included, a
// page of never-set words not — and they hold the same words, so the
// checkpoint encoding of a freshly loaded memory is unchanged.
func TestLoadImageMatchesWordStores(t *testing.T) {
	b := prog.NewBuilder("img")
	runs := b.Global("runs", 3*pageWords) // a run crossing two page boundaries, from mid-page
	b.Global("untouched", 2*pageWords)
	zeros := b.Global("zeros", 2*pageWords) // explicit zeros only
	tail := b.Global("tail", 8)
	b.Halt()
	p := b.MustBuild()
	want := NewMemory()
	set := func(addr int64, v uint64) {
		p.Init.Set(addr, v)
		want.Store(addr, v)
	}
	for i := int64(100); i < 2*pageWords+300; i++ {
		set(runs+i*prog.WordSize, uint64(i)*0x9e3779b97f4a7c15)
	}
	for i := int64(0); i < pageWords; i += 7 {
		set(zeros+(pageWords+i)*prog.WordSize, 0)
	}
	set(tail+3*prog.WordSize, 5)
	set(tail, 6) // out of order

	got := NewMemory()
	got.LoadImage(p)
	present := func(m *Memory) (n int) {
		for _, pg := range m.pages {
			if pg != nil {
				n++
			}
		}
		return n
	}
	if g, w := present(got), present(want); g != w {
		t.Fatalf("LoadImage touched %d pages, word stores %d", g, w)
	}
	for a := int64(prog.DataBase) - pageBytes; a < p.DataEnd+pageBytes; a += prog.WordSize {
		if g, w := got.Load(a), want.Load(a); g != w {
			t.Fatalf("word %#x = %#x, want %#x", a, g, w)
		}
	}
	gw, ww := snap.NewWriter(), snap.NewWriter()
	got.XferSnap(gw.Xfer())
	want.XferSnap(ww.Xfer())
	if !bytes.Equal(gw.Bytes(), ww.Bytes()) {
		t.Fatal("checkpoint bytes of the loaded memory differ from the word-store memory's")
	}
}
