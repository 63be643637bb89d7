package interp

// Differential testing: random straight-line programs are executed both
// by the functional interpreter and by a tiny independent Go evaluator;
// architectural state must match exactly. This catches semantics bugs
// in the interpreter that handwritten unit tests would miss.

import (
	"math"
	"math/rand"
	"testing"

	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// miniState is the independent evaluator's architectural state.
type miniState struct {
	intr [isa.NumIntRegs]int64
	fpr  [isa.NumFPRegs]float64
	mem  map[int64]uint64
}

func (m *miniState) load(addr int64) uint64 { return m.mem[addr] }
func (m *miniState) store(addr int64, v uint64) {
	m.mem[addr] = v
}

func (m *miniState) wInt(r isa.Reg, v int64) {
	if r != isa.RegZero {
		m.intr[r] = v
	}
}

// eval executes one instruction on the mini evaluator. Only the opcode
// subset the generator emits is handled.
func (m *miniState) eval(in isa.Instr) {
	switch in.Op {
	case isa.OpAdd:
		m.wInt(in.RD, m.intr[in.RS1]+m.intr[in.RS2])
	case isa.OpSub:
		m.wInt(in.RD, m.intr[in.RS1]-m.intr[in.RS2])
	case isa.OpAnd:
		m.wInt(in.RD, m.intr[in.RS1]&m.intr[in.RS2])
	case isa.OpOr:
		m.wInt(in.RD, m.intr[in.RS1]|m.intr[in.RS2])
	case isa.OpXor:
		m.wInt(in.RD, m.intr[in.RS1]^m.intr[in.RS2])
	case isa.OpSlt:
		v := int64(0)
		if m.intr[in.RS1] < m.intr[in.RS2] {
			v = 1
		}
		m.wInt(in.RD, v)
	case isa.OpMul:
		m.wInt(in.RD, m.intr[in.RS1]*m.intr[in.RS2])
	case isa.OpDiv:
		if m.intr[in.RS2] == 0 {
			m.wInt(in.RD, 0)
		} else {
			m.wInt(in.RD, m.intr[in.RS1]/m.intr[in.RS2])
		}
	case isa.OpRem:
		if m.intr[in.RS2] == 0 {
			m.wInt(in.RD, 0)
		} else {
			m.wInt(in.RD, m.intr[in.RS1]%m.intr[in.RS2])
		}
	case isa.OpAddi:
		m.wInt(in.RD, m.intr[in.RS1]+in.Imm)
	case isa.OpSlti:
		v := int64(0)
		if m.intr[in.RS1] < in.Imm {
			v = 1
		}
		m.wInt(in.RD, v)
	case isa.OpShli:
		m.wInt(in.RD, m.intr[in.RS1]<<uint(in.Imm&63))
	case isa.OpShri:
		m.wInt(in.RD, int64(uint64(m.intr[in.RS1])>>uint(in.Imm&63)))
	case isa.OpFadd:
		m.fpr[in.FD] = m.fpr[in.FS1] + m.fpr[in.FS2]
	case isa.OpFsub:
		m.fpr[in.FD] = m.fpr[in.FS1] - m.fpr[in.FS2]
	case isa.OpFmul:
		m.fpr[in.FD] = m.fpr[in.FS1] * m.fpr[in.FS2]
	case isa.OpFdiv:
		m.fpr[in.FD] = m.fpr[in.FS1] / m.fpr[in.FS2]
	case isa.OpFneg:
		m.fpr[in.FD] = -m.fpr[in.FS1]
	case isa.OpFcmp:
		v := int64(0)
		if m.fpr[in.FS1] < m.fpr[in.FS2] {
			v = 1
		}
		m.wInt(in.RD, v)
	case isa.OpLd:
		m.wInt(in.RD, int64(m.load(m.intr[in.RS1]+in.Imm)))
	case isa.OpSt:
		m.store(m.intr[in.RS1]+in.Imm, uint64(m.intr[in.RS2]))
	case isa.OpLdf:
		m.fpr[in.FD] = math.Float64frombits(m.load(m.intr[in.RS1] + in.Imm))
	case isa.OpStf:
		m.store(m.intr[in.RS1]+in.Imm, math.Float64bits(m.fpr[in.FS2]))
	default:
		panic("differential: generator emitted unhandled op " + in.Op.String())
	}
}

// genProgram emits a random straight-line program over a small scratch
// array. Memory ops address within the array via r20, which the
// prologue pins to the array base; the generator never writes r20.
func genProgram(rng *rand.Rand, steps int) (*prog.Program, []isa.Instr) {
	b := prog.NewBuilder("rand")
	arr := b.Global("scratch", 16)
	const base isa.Reg = 20
	b.Li(base, arr)
	reg := func() isa.Reg { return isa.Reg(1 + rng.Intn(16)) } // r1..r16
	freg := func() isa.Reg { return isa.Reg(rng.Intn(16)) }
	disp := func() int64 { return int64(rng.Intn(16)) * prog.WordSize }

	var body []isa.Instr
	emit := func(in isa.Instr) {
		body = append(body, in)
	}
	for i := 0; i < steps; i++ {
		switch rng.Intn(12) {
		case 0:
			emit(isa.Instr{Op: isa.OpAddi, RD: reg(), RS1: reg(), Imm: int64(rng.Intn(2001) - 1000)})
		case 1:
			emit(isa.Instr{Op: isa.OpAdd, RD: reg(), RS1: reg(), RS2: reg()})
		case 2:
			emit(isa.Instr{Op: isa.OpSub, RD: reg(), RS1: reg(), RS2: reg()})
		case 3:
			emit(isa.Instr{Op: isa.OpMul, RD: reg(), RS1: reg(), RS2: reg()})
		case 4:
			emit(isa.Instr{Op: isa.OpDiv, RD: reg(), RS1: reg(), RS2: reg()})
		case 5:
			emit(isa.Instr{Op: []isa.Op{isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSlt, isa.OpRem}[rng.Intn(5)],
				RD: reg(), RS1: reg(), RS2: reg()})
		case 6:
			emit(isa.Instr{Op: []isa.Op{isa.OpShli, isa.OpShri, isa.OpSlti}[rng.Intn(3)],
				RD: reg(), RS1: reg(), Imm: int64(rng.Intn(64))})
		case 7:
			emit(isa.Instr{Op: isa.OpLd, RD: reg(), RS1: base, Imm: disp()})
		case 8:
			emit(isa.Instr{Op: isa.OpSt, RS2: reg(), RS1: base, Imm: disp()})
		case 9:
			emit(isa.Instr{Op: []isa.Op{isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv}[rng.Intn(4)],
				FD: freg(), FS1: freg(), FS2: freg()})
		case 10:
			emit(isa.Instr{Op: isa.OpLdf, FD: freg(), RS1: base, Imm: disp()})
		case 11:
			emit(isa.Instr{Op: isa.OpStf, FS2: freg(), RS1: base, Imm: disp()})
		}
	}
	for _, in := range body {
		switch in.Op {
		case isa.OpAddi:
			b.Addi(in.RD, in.RS1, in.Imm)
		default:
			// Emit raw via the matching builder call.
			emitRaw(b, in)
		}
	}
	b.Halt()
	return b.MustBuild(), body
}

// emitRaw forwards a generated instruction to the builder.
func emitRaw(b *prog.Builder, in isa.Instr) {
	switch in.Op {
	case isa.OpAdd:
		b.Add(in.RD, in.RS1, in.RS2)
	case isa.OpSub:
		b.Sub(in.RD, in.RS1, in.RS2)
	case isa.OpAnd:
		b.And(in.RD, in.RS1, in.RS2)
	case isa.OpOr:
		b.Or(in.RD, in.RS1, in.RS2)
	case isa.OpXor:
		b.Xor(in.RD, in.RS1, in.RS2)
	case isa.OpSlt:
		b.Slt(in.RD, in.RS1, in.RS2)
	case isa.OpMul:
		b.Mul(in.RD, in.RS1, in.RS2)
	case isa.OpDiv:
		b.Div(in.RD, in.RS1, in.RS2)
	case isa.OpRem:
		b.Rem(in.RD, in.RS1, in.RS2)
	case isa.OpShli:
		b.Shli(in.RD, in.RS1, in.Imm)
	case isa.OpShri:
		b.Shri(in.RD, in.RS1, in.Imm)
	case isa.OpSlti:
		b.Slti(in.RD, in.RS1, in.Imm)
	case isa.OpLd:
		b.Ld(in.RD, in.RS1, in.Imm)
	case isa.OpSt:
		b.St(in.RS2, in.RS1, in.Imm)
	case isa.OpLdf:
		b.Ldf(in.FD, in.RS1, in.Imm)
	case isa.OpStf:
		b.Stf(in.FS2, in.RS1, in.Imm)
	case isa.OpFadd:
		b.Fadd(in.FD, in.FS1, in.FS2)
	case isa.OpFsub:
		b.Fsub(in.FD, in.FS1, in.FS2)
	case isa.OpFmul:
		b.Fmul(in.FD, in.FS1, in.FS2)
	case isa.OpFdiv:
		b.Fdiv(in.FD, in.FS1, in.FS2)
	case isa.OpFneg:
		b.Fneg(in.FD, in.FS1)
	case isa.OpFcmp:
		b.Fcmp(in.RD, in.FS1, in.FS2)
	default:
		panic("differential: unhandled " + in.Op.String())
	}
}

func TestInterpDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < 200; trial++ {
		p, body := genProgram(rng, 60)
		arr := p.SymbolAddr("scratch")

		// Interpreter run.
		mem := NewMemory()
		mem.LoadImage(p)
		th := NewThread(0, p, mem)
		var d DynInstr
		for !th.Halted {
			th.Exec(&d)
		}

		// Mini evaluator run (replays the generated body directly).
		var ms miniState
		ms.mem = make(map[int64]uint64)
		ms.intr[20] = arr
		for _, in := range body {
			ms.eval(in)
		}

		for r := 1; r <= 16; r++ {
			if uint64(ms.intr[r]) != th.Int[r] {
				t.Fatalf("trial %d: r%d = %#x, mini = %#x\n%s",
					trial, r, th.Int[r], uint64(ms.intr[r]), p.Disassemble())
			}
		}
		for r := 0; r < 16; r++ {
			got := math.Float64bits(th.FP[r])
			want := math.Float64bits(ms.fpr[r])
			if got != want {
				t.Fatalf("trial %d: f%d = %x, mini = %x", trial, r, got, want)
			}
		}
		for w := int64(0); w < 16; w++ {
			if mem.Load(arr+w*prog.WordSize) != ms.mem[arr+w*prog.WordSize] {
				t.Fatalf("trial %d: scratch[%d] = %#x, mini = %#x",
					trial, w, mem.Load(arr+w*prog.WordSize), ms.mem[arr+w*prog.WordSize])
			}
		}
	}
}

// TestExecRetiresGeneratedProgram checks that Exec retires exactly the
// generated instructions of random straight-line programs — the body,
// the base-register prologue and the halt — and then stops. It runs
// no timing model: the timing simulator's agreement with the
// interpreter is core's TestTimingMatchesFunctional.
func TestExecRetiresGeneratedProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p, body := genProgram(rng, 40)
		mem := NewMemory()
		mem.LoadImage(p)
		th := NewThread(0, p, mem)
		steps := 0
		var d DynInstr
		for !th.Halted {
			th.Exec(&d)
			steps++
		}
		// body + Li prologue + halt
		if steps != len(body)+2 {
			t.Fatalf("trial %d: steps = %d, want %d", trial, steps, len(body)+2)
		}
	}
}
