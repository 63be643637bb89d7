// Package isa defines the instruction set simulated by clustersmt.
//
// The ISA is a small 64-bit load/store RISC machine purpose-built to feed
// the timing back end with the same dynamic-instruction classes as the
// paper's MIPS2/MINT front end: integer ALU operations, integer
// multiply/divide, loads and stores, conditional branches and jumps,
// floating-point add/multiply/divide, and the synchronization operations
// (LOCK/UNLOCK/BARRIER) that the parallel runtime lowers to.
//
// Operation latencies follow Table 1 of the paper exactly; see
// OpInfo/Latency.
package isa

import "fmt"

// Op enumerates every opcode in the ISA.
type Op uint8

// Opcodes. The grouping mirrors Table 1 of the paper: integer unit,
// load/store unit and floating-point unit classes, plus front-end
// pseudo-operations (sync, halt) that never occupy a functional unit.
const (
	// OpInvalid is the zero Op and is never a legal instruction.
	OpInvalid Op = iota

	// Integer unit, latency 1.
	OpAdd  // rd = rs1 + rs2
	OpSub  // rd = rs1 - rs2
	OpAnd  // rd = rs1 & rs2
	OpOr   // rd = rs1 | rs2
	OpXor  // rd = rs1 ^ rs2
	OpSlt  // rd = 1 if rs1 < rs2 (signed) else 0
	OpShl  // rd = rs1 << (rs2 & 63)
	OpShr  // rd = uint64(rs1) >> (rs2 & 63)
	OpAddi // rd = rs1 + imm
	OpSlti // rd = 1 if rs1 < imm else 0
	OpAndi // rd = rs1 & imm
	OpOri  // rd = rs1 | imm
	OpShli // rd = rs1 << imm
	OpShri // rd = uint64(rs1) >> imm
	OpLui  // rd = imm << 16

	// Integer unit, latency 2.
	OpMul // rd = rs1 * rs2

	// Integer unit, latency 8, unpipelined.
	OpDiv // rd = rs1 / rs2 (rs2==0 yields 0)
	OpRem // rd = rs1 % rs2 (rs2==0 yields 0)

	// Control flow, integer unit, latency 1.
	OpBeq  // branch to PC+imm if rs1 == rs2
	OpBne  // branch to PC+imm if rs1 != rs2
	OpBlt  // branch to PC+imm if rs1 < rs2 (signed)
	OpBge  // branch to PC+imm if rs1 >= rs2 (signed)
	OpJump // unconditional branch to PC+imm
	OpJal  // rd = PC+1; jump to PC+imm
	OpJr   // jump to rs1 (register indirect, e.g. return)

	// Load/store unit. Loads latency 2 (address + L1 hit), stores
	// latency 1 (performed at commit).
	OpLd  // rd  = mem[rs1 + imm]        (integer load)
	OpSt  // mem[rs1 + imm] = rs2        (integer store)
	OpLdf // fd  = mem[rs1 + imm]        (fp load)
	OpStf // mem[rs1 + imm] = fs2        (fp store)

	// Atomic read-modify-write: rd = mem[rs1+imm]; mem[rs1+imm] = rs2.
	// Executed atomically at fetch time by the functional front end.
	OpSwap

	// Floating-point unit.
	OpFadd // fd = fs1 + fs2, latency 1
	OpFsub // fd = fs1 - fs2, latency 1
	OpFmul // fd = fs1 * fs2, latency 2
	OpFdiv // fd = fs1 / fs2, latency 7 (double precision), unpipelined
	OpFneg // fd = -fs1, latency 1
	OpFmov // fd = fs1, latency 1
	OpFcvt // fd = float64(rs1), latency 1 (int -> fp move/convert)
	OpFcmp // rd = 1 if fs1 < fs2 else 0, latency 1 (result to int reg)

	// Synchronization pseudo-operations, handled by the front end in
	// cooperation with the sync controller. They occupy an issue slot
	// like an integer op once unblocked.
	OpLock    // acquire lock number imm
	OpUnlock  // release lock number imm
	OpBarrier // wait on barrier number imm

	// OpHalt terminates the executing thread.
	OpHalt

	// OpNop does nothing (integer unit, latency 1).
	OpNop

	numOps
)

// NumOps is the number of defined opcodes (for table sizing).
const NumOps = int(numOps)

// Class describes which functional unit an operation needs.
type Class uint8

// Functional-unit classes. ClassNone ops (sync, halt) consume front-end
// slots but no functional unit.
const (
	ClassNone Class = iota
	ClassInt
	ClassLoad
	ClassStore
	ClassFP
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassInt:
		return "int"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassFP:
		return "fp"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Info holds the static properties of an opcode.
type Info struct {
	Name    string
	Class   Class
	Latency int  // execution latency in cycles (Table 1)
	Pipel   bool // false => unit is occupied for Latency cycles
	Branch  bool // any control transfer
	CondBr  bool // conditional branch (predicted)
	Mem     bool // touches memory
	Sync    bool // lock/unlock/barrier
	// Register usage. RS1/RS2 integer sources, FS1/FS2 fp sources,
	// RD integer dest, FD fp dest; see Instr for which fields apply.
	ReadsRS1, ReadsRS2 bool
	ReadsFS1, ReadsFS2 bool
	WritesRD, WritesFD bool
	UsesImm            bool
}

var infoTable = [NumOps]Info{
	OpInvalid: {Name: "invalid", Class: ClassNone},

	OpAdd:  {Name: "add", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, ReadsRS2: true, WritesRD: true},
	OpSub:  {Name: "sub", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, ReadsRS2: true, WritesRD: true},
	OpAnd:  {Name: "and", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, ReadsRS2: true, WritesRD: true},
	OpOr:   {Name: "or", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, ReadsRS2: true, WritesRD: true},
	OpXor:  {Name: "xor", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, ReadsRS2: true, WritesRD: true},
	OpSlt:  {Name: "slt", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, ReadsRS2: true, WritesRD: true},
	OpShl:  {Name: "shl", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, ReadsRS2: true, WritesRD: true},
	OpShr:  {Name: "shr", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, ReadsRS2: true, WritesRD: true},
	OpAddi: {Name: "addi", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, WritesRD: true, UsesImm: true},
	OpSlti: {Name: "slti", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, WritesRD: true, UsesImm: true},
	OpAndi: {Name: "andi", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, WritesRD: true, UsesImm: true},
	OpOri:  {Name: "ori", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, WritesRD: true, UsesImm: true},
	OpShli: {Name: "shli", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, WritesRD: true, UsesImm: true},
	OpShri: {Name: "shri", Class: ClassInt, Latency: 1, Pipel: true, ReadsRS1: true, WritesRD: true, UsesImm: true},
	OpLui:  {Name: "lui", Class: ClassInt, Latency: 1, Pipel: true, WritesRD: true, UsesImm: true},

	OpMul: {Name: "mul", Class: ClassInt, Latency: 2, Pipel: true, ReadsRS1: true, ReadsRS2: true, WritesRD: true},
	OpDiv: {Name: "div", Class: ClassInt, Latency: 8, Pipel: false, ReadsRS1: true, ReadsRS2: true, WritesRD: true},
	OpRem: {Name: "rem", Class: ClassInt, Latency: 8, Pipel: false, ReadsRS1: true, ReadsRS2: true, WritesRD: true},

	OpBeq:  {Name: "beq", Class: ClassInt, Latency: 1, Pipel: true, Branch: true, CondBr: true, ReadsRS1: true, ReadsRS2: true, UsesImm: true},
	OpBne:  {Name: "bne", Class: ClassInt, Latency: 1, Pipel: true, Branch: true, CondBr: true, ReadsRS1: true, ReadsRS2: true, UsesImm: true},
	OpBlt:  {Name: "blt", Class: ClassInt, Latency: 1, Pipel: true, Branch: true, CondBr: true, ReadsRS1: true, ReadsRS2: true, UsesImm: true},
	OpBge:  {Name: "bge", Class: ClassInt, Latency: 1, Pipel: true, Branch: true, CondBr: true, ReadsRS1: true, ReadsRS2: true, UsesImm: true},
	OpJump: {Name: "jump", Class: ClassInt, Latency: 1, Pipel: true, Branch: true, UsesImm: true},
	OpJal:  {Name: "jal", Class: ClassInt, Latency: 1, Pipel: true, Branch: true, WritesRD: true, UsesImm: true},
	OpJr:   {Name: "jr", Class: ClassInt, Latency: 1, Pipel: true, Branch: true, ReadsRS1: true},

	OpLd:   {Name: "ld", Class: ClassLoad, Latency: 2, Pipel: true, Mem: true, ReadsRS1: true, WritesRD: true, UsesImm: true},
	OpSt:   {Name: "st", Class: ClassStore, Latency: 1, Pipel: true, Mem: true, ReadsRS1: true, ReadsRS2: true, UsesImm: true},
	OpLdf:  {Name: "ldf", Class: ClassLoad, Latency: 2, Pipel: true, Mem: true, ReadsRS1: true, WritesFD: true, UsesImm: true},
	OpStf:  {Name: "stf", Class: ClassStore, Latency: 1, Pipel: true, Mem: true, ReadsRS1: true, ReadsFS2: true, UsesImm: true},
	OpSwap: {Name: "swap", Class: ClassLoad, Latency: 2, Pipel: true, Mem: true, ReadsRS1: true, ReadsRS2: true, WritesRD: true, UsesImm: true},

	OpFadd: {Name: "fadd", Class: ClassFP, Latency: 1, Pipel: true, ReadsFS1: true, ReadsFS2: true, WritesFD: true},
	OpFsub: {Name: "fsub", Class: ClassFP, Latency: 1, Pipel: true, ReadsFS1: true, ReadsFS2: true, WritesFD: true},
	OpFmul: {Name: "fmul", Class: ClassFP, Latency: 2, Pipel: true, ReadsFS1: true, ReadsFS2: true, WritesFD: true},
	OpFdiv: {Name: "fdiv", Class: ClassFP, Latency: 7, Pipel: false, ReadsFS1: true, ReadsFS2: true, WritesFD: true},
	OpFneg: {Name: "fneg", Class: ClassFP, Latency: 1, Pipel: true, ReadsFS1: true, WritesFD: true},
	OpFmov: {Name: "fmov", Class: ClassFP, Latency: 1, Pipel: true, ReadsFS1: true, WritesFD: true},
	OpFcvt: {Name: "fcvt", Class: ClassFP, Latency: 1, Pipel: true, ReadsRS1: true, WritesFD: true},
	OpFcmp: {Name: "fcmp", Class: ClassFP, Latency: 1, Pipel: true, ReadsFS1: true, ReadsFS2: true, WritesRD: true},

	OpLock:    {Name: "lock", Class: ClassNone, Latency: 1, Pipel: true, Sync: true, UsesImm: true},
	OpUnlock:  {Name: "unlock", Class: ClassNone, Latency: 1, Pipel: true, Sync: true, UsesImm: true},
	OpBarrier: {Name: "barrier", Class: ClassNone, Latency: 1, Pipel: true, Sync: true, UsesImm: true},

	OpHalt: {Name: "halt", Class: ClassNone, Latency: 1, Pipel: true},
	OpNop:  {Name: "nop", Class: ClassInt, Latency: 1, Pipel: true},
}

// InfoFor returns the static description of op: a read-only pointer
// into the shared table (the struct is 48 bytes). Per-instruction
// paths do not ask it: prog.Builder.Build decodes each static
// instruction once (prog.Decoded). It panics on an out-of-range opcode,
// which always indicates a builder bug.
func InfoFor(op Op) *Info {
	if int(op) >= NumOps {
		panic(fmt.Sprintf("isa: opcode out of range: %d", op))
	}
	return &infoTable[op]
}

func (op Op) String() string {
	if int(op) >= NumOps {
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
	return infoTable[op].Name
}

// Register file geometry. R0 always reads as zero; writes to it are
// discarded. The FP file has no hard-wired zero.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
)

// Reg is an architectural register number, valid for both files.
type Reg uint8

// Conventional register roles used by the program builder and runtime.
const (
	RegZero Reg = 0  // hard-wired zero
	RegSP   Reg = 29 // stack pointer
	RegTID  Reg = 30 // thread id (set by runtime at thread start)
	RegRA   Reg = 31 // return address (written by jal)
)

// Instr is one static instruction.
type Instr struct {
	Op  Op
	RD  Reg   // integer destination
	RS1 Reg   // integer source 1 (also the base register for memory ops)
	RS2 Reg   // integer source 2 (store data for OpSt/OpSwap)
	FD  Reg   // fp destination
	FS1 Reg   // fp source 1
	FS2 Reg   // fp source 2 (store data for OpStf)
	Imm int64 // immediate / displacement / sync object id / branch offset
}

// Info returns the static description of the instruction's opcode.
func (in Instr) Info() *Info { return InfoFor(in.Op) }

// String renders the instruction in a compact assembly-like syntax.
func (in Instr) String() string {
	inf := in.Info()
	switch {
	case in.Op == OpHalt || in.Op == OpNop:
		return inf.Name
	case inf.Sync:
		return fmt.Sprintf("%s #%d", inf.Name, in.Imm)
	case in.Op == OpLd || in.Op == OpSwap:
		return fmt.Sprintf("%s r%d, %d(r%d)", inf.Name, in.RD, in.Imm, in.RS1)
	case in.Op == OpSt:
		return fmt.Sprintf("%s r%d, %d(r%d)", inf.Name, in.RS2, in.Imm, in.RS1)
	case in.Op == OpLdf:
		return fmt.Sprintf("%s f%d, %d(r%d)", inf.Name, in.FD, in.Imm, in.RS1)
	case in.Op == OpStf:
		return fmt.Sprintf("%s f%d, %d(r%d)", inf.Name, in.FS2, in.Imm, in.RS1)
	case inf.CondBr:
		return fmt.Sprintf("%s r%d, r%d, %+d", inf.Name, in.RS1, in.RS2, in.Imm)
	case in.Op == OpJump:
		return fmt.Sprintf("%s %+d", inf.Name, in.Imm)
	case in.Op == OpJal:
		return fmt.Sprintf("%s r%d, %+d", inf.Name, in.RD, in.Imm)
	case in.Op == OpJr:
		return fmt.Sprintf("%s r%d", inf.Name, in.RS1)
	case inf.Class == ClassFP && inf.WritesFD && inf.ReadsFS2:
		return fmt.Sprintf("%s f%d, f%d, f%d", inf.Name, in.FD, in.FS1, in.FS2)
	case inf.Class == ClassFP && inf.WritesFD && inf.ReadsRS1:
		return fmt.Sprintf("%s f%d, r%d", inf.Name, in.FD, in.RS1)
	case inf.Class == ClassFP && inf.WritesFD:
		return fmt.Sprintf("%s f%d, f%d", inf.Name, in.FD, in.FS1)
	case in.Op == OpFcmp:
		return fmt.Sprintf("%s r%d, f%d, f%d", inf.Name, in.RD, in.FS1, in.FS2)
	case inf.UsesImm && inf.ReadsRS1:
		return fmt.Sprintf("%s r%d, r%d, %d", inf.Name, in.RD, in.RS1, in.Imm)
	case inf.UsesImm:
		return fmt.Sprintf("%s r%d, %d", inf.Name, in.RD, in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", inf.Name, in.RD, in.RS1, in.RS2)
	}
}

// MaxSyncID bounds the sync object id a LOCK, UNLOCK or BARRIER
// carries in its immediate: ids index a dense table, so an absurd
// immediate must not size one.
const MaxSyncID = 1 << 16

// Validate checks structural well-formedness of the instruction
// (register numbers within file bounds, opcode defined, sync ids in
// [0, MaxSyncID)). The timing and functional engines assume validated
// programs.
func (in Instr) Validate() error {
	if in.Op == OpInvalid || int(in.Op) >= NumOps {
		return fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	if in.RD >= NumIntRegs || in.RS1 >= NumIntRegs || in.RS2 >= NumIntRegs {
		return fmt.Errorf("isa: %s: integer register out of range", in)
	}
	if in.FD >= NumFPRegs || in.FS1 >= NumFPRegs || in.FS2 >= NumFPRegs {
		return fmt.Errorf("isa: %s: fp register out of range", in)
	}
	if in.Info().Sync && (in.Imm < 0 || in.Imm >= MaxSyncID) {
		return fmt.Errorf("isa: %s: sync object id outside [0, %d)", in, MaxSyncID)
	}
	return nil
}
