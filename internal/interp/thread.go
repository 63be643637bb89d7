package interp

import (
	"fmt"
	"math"

	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// DynInstr is one dynamic instruction: the functional outcome of
// executing a static instruction in a thread. The timing back end
// consumes these at fetch time; the static instruction is the program's
// decoded slot at PC.
type DynInstr struct {
	Seq    uint64 // per-thread dynamic sequence number, from 0
	PC     int64  // static PC executed
	Addr   int64  // effective address (memory ops only)
	Taken  bool   // branch outcome (control ops only)
	Target int64  // PC actually executed next
}

// Thread is one functional execution context: architectural registers,
// a PC, and a reference to the shared memory. Exec advances it by one
// instruction.
type Thread struct {
	ID      int
	Prog    *prog.Program
	Mem     *Memory
	PC      int64
	Int     [isa.NumIntRegs]uint64
	FP      [isa.NumFPRegs]float64
	Halted  bool
	Retired uint64 // dynamic instructions executed

	code []prog.Decoded // Prog.Decoded

	// view is the thread's handle on Mem.
	view View
}

// NewThread returns a thread positioned at the program entry with the
// conventional registers (TID, SP) initialized. Each thread gets a
// private stack region above the data segment; stacks are 64 KiB.
func NewThread(id int, p *prog.Program, mem *Memory) *Thread {
	t := &Thread{ID: id, Prog: p, Mem: mem, PC: p.Entry, code: p.Decoded, view: mem.NewView()}
	t.Int[isa.RegTID] = uint64(id)
	const stackSize = 64 * 1024
	base := ((p.DataEnd + pageBytes - 1) / pageBytes) * pageBytes
	t.Int[isa.RegSP] = uint64(base + int64(id+1)*stackSize)
	return t
}

// Next returns the decoded instruction at PC — the one Exec executes
// next — or nil when PC lies outside the program: a wild jump, which
// the caller reports as the program's error rather than execute.
func (t *Thread) Next() *prog.Decoded {
	if uint64(t.PC) >= uint64(len(t.code)) {
		return nil
	}
	return &t.code[t.PC]
}

func (t *Thread) readInt(r isa.Reg) int64 { return int64(t.Int[r]) }

func (t *Thread) writeInt(r isa.Reg, v int64) {
	if r != isa.RegZero {
		t.Int[r] = uint64(v)
	}
}

// Exec executes the instruction at PC, which Next has shown to be in
// the program, and writes its dynamic event into d: one call per
// dynamic instruction, into the caller's own record (the timing front
// end passes its window slot's). Synchronization ops (lock/unlock/
// barrier) execute as control no-ops: the caller (timing front end or
// functional scheduler) is responsible for blocking the thread until
// the sync controller grants the operation, and must only call Exec
// once it is granted. Exec on a halted thread panics.
func (t *Thread) Exec(d *DynInstr) {
	if t.Halted {
		panic(fmt.Sprintf("interp: Exec on halted thread %d", t.ID))
	}
	in := &t.code[t.PC].Instr
	*d = DynInstr{Seq: t.Retired, PC: t.PC}
	next := t.PC + 1

	switch in.Op {
	case isa.OpAdd:
		t.writeInt(in.RD, t.readInt(in.RS1)+t.readInt(in.RS2))
	case isa.OpSub:
		t.writeInt(in.RD, t.readInt(in.RS1)-t.readInt(in.RS2))
	case isa.OpAnd:
		t.writeInt(in.RD, t.readInt(in.RS1)&t.readInt(in.RS2))
	case isa.OpOr:
		t.writeInt(in.RD, t.readInt(in.RS1)|t.readInt(in.RS2))
	case isa.OpXor:
		t.writeInt(in.RD, t.readInt(in.RS1)^t.readInt(in.RS2))
	case isa.OpSlt:
		t.writeInt(in.RD, boolToInt(t.readInt(in.RS1) < t.readInt(in.RS2)))
	case isa.OpShl:
		t.writeInt(in.RD, t.readInt(in.RS1)<<(t.Int[in.RS2]&63))
	case isa.OpShr:
		t.writeInt(in.RD, int64(t.Int[in.RS1]>>(t.Int[in.RS2]&63)))
	case isa.OpAddi:
		t.writeInt(in.RD, t.readInt(in.RS1)+in.Imm)
	case isa.OpSlti:
		t.writeInt(in.RD, boolToInt(t.readInt(in.RS1) < in.Imm))
	case isa.OpAndi:
		t.writeInt(in.RD, t.readInt(in.RS1)&in.Imm)
	case isa.OpOri:
		t.writeInt(in.RD, t.readInt(in.RS1)|in.Imm)
	case isa.OpShli:
		t.writeInt(in.RD, t.readInt(in.RS1)<<uint(in.Imm&63))
	case isa.OpShri:
		t.writeInt(in.RD, int64(t.Int[in.RS1]>>uint(in.Imm&63)))
	case isa.OpLui:
		t.writeInt(in.RD, in.Imm<<16)
	case isa.OpMul:
		t.writeInt(in.RD, t.readInt(in.RS1)*t.readInt(in.RS2))
	case isa.OpDiv:
		den := t.readInt(in.RS2)
		if den == 0 {
			t.writeInt(in.RD, 0)
		} else {
			t.writeInt(in.RD, t.readInt(in.RS1)/den)
		}
	case isa.OpRem:
		den := t.readInt(in.RS2)
		if den == 0 {
			t.writeInt(in.RD, 0)
		} else {
			t.writeInt(in.RD, t.readInt(in.RS1)%den)
		}

	case isa.OpBeq:
		d.Taken = t.readInt(in.RS1) == t.readInt(in.RS2)
	case isa.OpBne:
		d.Taken = t.readInt(in.RS1) != t.readInt(in.RS2)
	case isa.OpBlt:
		d.Taken = t.readInt(in.RS1) < t.readInt(in.RS2)
	case isa.OpBge:
		d.Taken = t.readInt(in.RS1) >= t.readInt(in.RS2)
	case isa.OpJump:
		d.Taken = true
	case isa.OpJal:
		t.writeInt(in.RD, t.PC+1)
		d.Taken = true
	case isa.OpJr:
		d.Taken = true

	case isa.OpLd:
		d.Addr = t.readInt(in.RS1) + in.Imm
		t.writeInt(in.RD, int64(t.view.Load(d.Addr)))
	case isa.OpSt:
		d.Addr = t.readInt(in.RS1) + in.Imm
		t.view.Store(d.Addr, t.Int[in.RS2])
	case isa.OpLdf:
		d.Addr = t.readInt(in.RS1) + in.Imm
		t.FP[in.FD] = math.Float64frombits(t.view.Load(d.Addr))
	case isa.OpStf:
		d.Addr = t.readInt(in.RS1) + in.Imm
		t.view.Store(d.Addr, math.Float64bits(t.FP[in.FS2]))
	case isa.OpSwap:
		d.Addr = t.readInt(in.RS1) + in.Imm
		t.writeInt(in.RD, int64(t.view.Swap(d.Addr, t.Int[in.RS2])))

	case isa.OpFadd:
		t.FP[in.FD] = t.FP[in.FS1] + t.FP[in.FS2]
	case isa.OpFsub:
		t.FP[in.FD] = t.FP[in.FS1] - t.FP[in.FS2]
	case isa.OpFmul:
		t.FP[in.FD] = t.FP[in.FS1] * t.FP[in.FS2]
	case isa.OpFdiv:
		t.FP[in.FD] = t.FP[in.FS1] / t.FP[in.FS2]
	case isa.OpFneg:
		t.FP[in.FD] = -t.FP[in.FS1]
	case isa.OpFmov:
		t.FP[in.FD] = t.FP[in.FS1]
	case isa.OpFcvt:
		t.FP[in.FD] = float64(t.readInt(in.RS1))
	case isa.OpFcmp:
		t.writeInt(in.RD, boolToInt(t.FP[in.FS1] < t.FP[in.FS2]))

	case isa.OpLock, isa.OpUnlock, isa.OpBarrier, isa.OpNop:
		// Functional no-ops; sync semantics live in the controller.
	case isa.OpHalt:
		t.Halted = true
	default:
		panic(fmt.Sprintf("interp: unimplemented opcode %v", in.Op))
	}

	if d.Taken {
		if in.Op == isa.OpJr {
			next = t.readInt(in.RS1)
		} else {
			next = t.PC + in.Imm
		}
	}
	d.Target = next
	t.PC = next
	t.Retired++
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
