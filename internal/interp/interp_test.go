package interp

import (
	"bytes"
	"math"
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
	for !th.Halted {
		th.Step()
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

	th.Step() // li
	d := th.Step()
	if d.Taken || !d.IsBranch() {
		t.Fatalf("beq event wrong: %+v", d)
	}
	d = th.Step()
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

func TestPeekOnHaltedPanics(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Halt()
	p := b.MustBuild()
	th := NewThread(0, p, NewMemory())
	th.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	th.Peek()
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
	if got.Pages() != want.Pages() {
		t.Fatalf("LoadImage touched %d pages, word stores %d", got.Pages(), want.Pages())
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
