package prog

import (
	"strings"
	"testing"

	"clustersmt/internal/isa"
)

func TestBuilderLabelsAndBranches(t *testing.T) {
	b := NewBuilder("t")
	b.Li(1, 3)         // pc 0
	b.Label("top")     // pc 1
	b.Addi(1, 1, -1)   // pc 1
	b.Bne(1, 0, "top") // pc 2: branch back to 1
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	br := p.Code[2]
	if br.Op != isa.OpBne {
		t.Fatalf("pc 2 op = %v", br.Op)
	}
	if got := int64(2) + br.Imm; got != 1 {
		t.Fatalf("branch target = %d, want 1", got)
	}
}

func TestUndefinedLabelFails(t *testing.T) {
	b := NewBuilder("t")
	b.Jump("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Fatalf("want undefined-label error, got %v", err)
	}
}

func TestDuplicateLabelFails(t *testing.T) {
	b := NewBuilder("t")
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("want duplicate-label error")
	}
}

func TestMissingHaltFails(t *testing.T) {
	b := NewBuilder("t")
	b.Nop()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "halt") {
		t.Fatalf("want missing-halt error, got %v", err)
	}
}

// TestSyncIDOutOfRangeFails: a sync id the controller's table cannot
// hold is refused where the program is built, naming its pc.
func TestSyncIDOutOfRangeFails(t *testing.T) {
	for _, id := range []int64{-1, isa.MaxSyncID} {
		b := NewBuilder("t")
		b.Nop()
		b.Lock(id)
		b.Halt()
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "pc 1") {
			t.Errorf("lock #%d: want an error at pc 1, got %v", id, err)
		}
	}
}

func TestGlobalLayout(t *testing.T) {
	b := NewBuilder("t")
	a1 := b.Global("a", 4)
	a2 := b.Global("b", 2)
	if a1 != DataBase {
		t.Errorf("first global at %#x, want %#x", a1, DataBase)
	}
	if a2 != DataBase+4*WordSize {
		t.Errorf("second global at %#x, want %#x", a2, DataBase+4*WordSize)
	}
	b.Halt()
	p := b.MustBuild()
	if p.SymbolAddr("a") != a1 || p.SymbolAddr("b") != a2 {
		t.Error("symbol addresses do not round-trip")
	}
	if p.DataEnd != a2+2*WordSize {
		t.Errorf("DataEnd = %#x, want %#x", p.DataEnd, a2+2*WordSize)
	}
}

func TestDuplicateGlobalFails(t *testing.T) {
	b := NewBuilder("t")
	b.Global("a", 1)
	b.Global("a", 1)
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("want duplicate-symbol error")
	}
}

func TestGlobalFloatsInit(t *testing.T) {
	b := NewBuilder("t")
	addr := b.GlobalFloats("v", []float64{1.5, -2.25})
	b.Halt()
	p := b.MustBuild()
	if p.Init.Len() != 2 {
		t.Fatalf("init words = %d, want 2", p.Init.Len())
	}
	if _, ok := p.Init.Get(addr); !ok {
		t.Error("first element not initialized")
	}
}

func TestFliInternsConstants(t *testing.T) {
	b := NewBuilder("t")
	b.Fli(1, 3.25)
	b.Fli(2, 3.25)
	b.Fli(3, 4.5)
	b.Halt()
	p := b.MustBuild()
	// Two distinct constants -> two pool words.
	if p.Init.Len() != 2 {
		t.Fatalf("pool words = %d, want 2", p.Init.Len())
	}
	if p.Code[0].Imm != p.Code[1].Imm {
		t.Error("same constant not interned to same address")
	}
	if p.Code[0].Imm == p.Code[2].Imm {
		t.Error("distinct constants share an address")
	}
}

func TestCountedLoopShape(t *testing.T) {
	b := NewBuilder("t")
	b.Li(1, 0)
	b.Li(2, 5)
	body := 0
	b.CountedLoop(1, 2, func() {
		body = len(b.code)
		b.Nop()
	})
	b.Halt()
	p := b.MustBuild()
	if body == 0 {
		t.Fatal("body never emitted")
	}
	// Structure: guard bge, body, addi, blt.
	if p.Code[2].Op != isa.OpBge {
		t.Errorf("guard op = %v, want bge", p.Code[2].Op)
	}
	last := p.Code[len(p.Code)-2]
	if last.Op != isa.OpBlt {
		t.Errorf("backedge op = %v, want blt", last.Op)
	}
}

func TestIfThread0Shape(t *testing.T) {
	b := NewBuilder("t")
	b.IfThread0(func() { b.Nop() })
	b.Halt()
	p := b.MustBuild()
	if p.Code[0].Op != isa.OpBne || p.Code[0].RS1 != isa.RegTID {
		t.Fatalf("guard = %v", p.Code[0])
	}
	if got := int64(0) + p.Code[0].Imm; got != 2 {
		t.Fatalf("skip target = %d, want 2", got)
	}
}

func TestDisassembleContainsEveryPC(t *testing.T) {
	b := NewBuilder("t")
	b.Li(1, 1)
	b.Add(2, 1, 1)
	b.Halt()
	p := b.MustBuild()
	dis := p.Disassemble()
	if strings.Count(dis, "\n") != 3 {
		t.Fatalf("disassembly lines = %d, want 3:\n%s", strings.Count(dis, "\n"), dis)
	}
}

// TestGoldenDisassembly pins the disassembler's exact rendering for a
// program touching every syntax class.
func TestGoldenDisassembly(t *testing.T) {
	b := NewBuilder("golden")
	a := b.Global("arr", 2)
	b.Li(1, 5)         // addi
	b.Add(2, 1, 1)     // three-reg
	b.Ld(3, 1, a)      // load
	b.St(3, 1, a)      // store
	b.Fli(1, 2.5)      // ldf from pool
	b.Stf(1, 0, a)     // fp store
	b.Fadd(2, 1, 1)    // fp three-reg
	b.Fcmp(4, 1, 2)    // fp compare
	b.Beq(1, 2, "end") // cond branch
	b.Jal(31, "end")   // call
	b.Jr(31)           // indirect
	b.Lock(3)          // sync
	b.Unlock(3)
	b.Barrier(1)
	b.Label("end")
	b.Halt()
	p := b.MustBuild()

	want := `    0: addi r1, r0, 5
    1: add r2, r1, r1
    2: ld r3, 65536(r1)
    3: st r3, 65536(r1)
    4: ldf f1, 65552(r0)
    5: stf f1, 65536(r0)
    6: fadd f2, f1, f1
    7: fcmp r4, f1, f2
    8: beq r1, r2, +6
    9: jal r31, +5
   10: jr r31
   11: lock #3
   12: unlock #3
   13: barrier #1
   14: halt
`
	if got := p.Disassemble(); got != want {
		t.Errorf("disassembly mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
