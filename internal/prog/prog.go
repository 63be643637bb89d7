// Package prog provides the static program representation consumed by
// the functional front end, plus an assembler-style Builder used by the
// workload kernels to author programs in the clustersmt ISA.
//
// Memory model: a single flat byte-addressed shared address space with
// 8-byte words. The builder lays out global arrays from DataBase upward;
// per-thread stacks are carved by the parallel runtime above the data
// segment. Absolute addressing of globals uses r0 (hard-wired zero) as
// the base register with the symbol's address as the displacement.
//
// A program's initial memory is an Image: dense word arrays over the
// data segment plus a bitmap of the words actually initialized, and
// repeated extents that hold one period for a whole array, kept in
// address order. The loader copies it into memory a page at a time and
// the program digests (Fingerprint, PrefixKey) stream it as it lies;
// each digest is computed once per Program and the image is frozen from
// then on (see Program.Init).
package prog

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"clustersmt/internal/isa"
)

// WordSize is the size in bytes of the machine word (and of every memory
// access in the ISA).
const WordSize = 8

// DataBase is the first address of the global data segment. The zero
// page is kept unmapped so that stray null-base accesses are easy to
// spot in tests; the builder's constant pool also lives above this base.
const DataBase = 0x1_0000

// Symbol describes one named object in the data segment.
type Symbol struct {
	Name string
	Addr int64 // byte address of the first word
	Size int64 // size in bytes
}

// Program is an assembled, validated program image. Pass it by pointer:
// it remembers its digests, so a copy made after the first hash would
// carry them on without the guard that keeps them true.
type Program struct {
	Name    string
	Code    []isa.Instr
	Entry   int64             // PC of the first instruction each thread executes
	DataEnd int64             // first byte past the data segment
	Symbols map[string]Symbol // global objects by name

	// Init is the initial memory image (word address -> bits), the
	// builder's own, its dense arrays already spanning the data segment
	// outside the repeated extents. Workloads fill it with Init.Set or
	// Init.SetRun after Build; the first Fingerprint or PrefixKey call
	// freezes it, because both digests cover the image
	// and are computed only once — a Set after that panics naming the
	// program rather than leave a remembered digest describing an image
	// that no longer exists (a checkpoint could then restore under the
	// wrong data). Snapshot, Restore, ForkProgram and the harness's
	// warm-up sharing all hash their program, so finish filling the image
	// before handing the program to a simulator.
	Init Image

	// PrefixLen, when non-zero, marks the first PrefixLen code slots as a
	// warm-up prefix: a region the workload promises is identical across a
	// family of config variants (see Builder.MarkPrefix). Checkpoints taken
	// while execution has only consumed prefix code may be restored under
	// any program with an equal PrefixKey. Zero means no prefix declared.
	PrefixLen int

	// Fingerprint and PrefixKey, each computed on first use. Code, Entry,
	// DataEnd and PrefixLen must not change after Build; Init cannot
	// once either digest exists.
	fpOnce, pkOnce sync.Once
	fp, pk         [32]byte
}

// SymbolAddr returns the address of a named global. It panics if the
// symbol does not exist: workloads reference symbols they declared, so a
// miss is always a programming error.
func (p *Program) SymbolAddr(name string) int64 {
	s, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("prog: unknown symbol %q", name))
	}
	return s.Addr
}

// Len returns the number of static instructions.
func (p *Program) Len() int { return len(p.Code) }

// Disassemble renders the whole program, one instruction per line, with
// PCs; intended for debugging and golden tests.
func (p *Program) Disassemble() string {
	var out strings.Builder
	for pc, in := range p.Code {
		fmt.Fprintf(&out, "%5d: %s\n", pc, in.String())
	}
	return out.String()
}

type fixup struct {
	pc    int // instruction index needing patching
	label string
}

// Builder assembles a Program. All emit methods append one instruction;
// control flow uses string labels resolved at Build time. Builder
// methods panic on misuse (unknown label at Build, register out of
// range) because kernels are authored statically in this repository.
type Builder struct {
	name    string
	code    []isa.Instr
	labels  map[string]int
	fixups  []fixup
	symbols map[string]Symbol
	next    int64 // next free data address
	init    Image
	pool    map[uint64]int64 // constant pool: bits -> address
	prefix  int              // PrefixLen of the built program (0 = none)
	seq     int              // unique-label counter (see Seq)
	errs    []error
	built   bool // Build has handed init to a program
}

// Seq returns a fresh per-builder sequence number for generated label
// names. Per-builder (not package-global) so concurrent builds — e.g.
// two daemons in one test process simulating different apps at once —
// never share state: label names depend only on this program's own
// emission order.
func (b *Builder) Seq() int {
	b.seq++
	return b.seq
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		labels:  make(map[string]int),
		symbols: make(map[string]Symbol),
		next:    DataBase,
		pool:    make(map[uint64]int64),
	}
}

// PC returns the index of the next instruction to be emitted.
func (b *Builder) PC() int { return len(b.code) }

// MarkPrefix records the current PC as the end of the program's warm-up
// prefix: every instruction emitted so far becomes part of the prefix
// hashed by Program.PrefixKey. Call it once, after emitting the code
// that is shared verbatim across config variants (typically ending in a
// barrier) and before any variant-specific code.
func (b *Builder) MarkPrefix() {
	if b.prefix != 0 {
		b.errs = append(b.errs, fmt.Errorf("prog: %s: MarkPrefix called twice", b.name))
		return
	}
	if len(b.code) == 0 {
		b.errs = append(b.errs, fmt.Errorf("prog: %s: MarkPrefix on empty prefix", b.name))
		return
	}
	b.prefix = len(b.code)
}

// Global reserves words 8-byte words of zero-initialized global storage
// and returns its base address.
func (b *Builder) Global(name string, words int64) int64 {
	if _, dup := b.symbols[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("prog: duplicate symbol %q", name))
	}
	addr := b.next
	b.symbols[name] = Symbol{Name: name, Addr: addr, Size: words * WordSize}
	b.next += words * WordSize
	return addr
}

// MustAddr returns the address of an already-declared global, panicking
// on unknown names (kernel-authoring convenience).
func (b *Builder) MustAddr(name string) int64 {
	s, ok := b.symbols[name]
	if !ok {
		panic(fmt.Sprintf("prog: %s: unknown symbol %q", b.name, name))
	}
	return s.Addr
}

// GlobalFloats reserves a global array and fills it with the given
// float64 values.
func (b *Builder) GlobalFloats(name string, vals []float64) int64 {
	words := make([]uint64, len(vals))
	for i, v := range vals {
		words[i] = math.Float64bits(v)
	}
	return b.GlobalWords(name, words)
}

// GlobalWords reserves a global array initialized with the given words.
func (b *Builder) GlobalWords(name string, vals []uint64) int64 {
	addr := b.Global(name, int64(len(vals)))
	b.init.SetRun(addr, vals)
	return addr
}

// GlobalRepeat reserves a global array of words words in which word k
// holds period[k % len(period)], and returns its base address. The array
// is one repeated extent of the image (see Image): building, handing
// over and hashing it cost the period, not the footprint. It is fixed
// once declared — an Init.Set or SetRun into it panics — though the
// program stores to it at run time like any other global. It panics on
// an empty array or period.
func (b *Builder) GlobalRepeat(name string, words int64, period []uint64) int64 {
	addr := b.Global(name, words)
	b.init.repeat(addr, words, period)
	return addr
}

// floatConst interns a float64 in the constant pool and returns its
// address.
func (b *Builder) floatConst(v float64) int64 {
	bits := math.Float64bits(v)
	if a, ok := b.pool[bits]; ok {
		return a
	}
	a := b.next
	b.next += WordSize
	b.init.Set(a, bits)
	b.pool[bits] = a
	return a
}

// Label binds name to the next emitted instruction.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("prog: duplicate label %q", name))
	}
	b.labels[name] = len(b.code)
}

func (b *Builder) emit(in isa.Instr) {
	b.code = append(b.code, in)
}

func (b *Builder) emitBranch(in isa.Instr, label string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.code), label: label})
	b.code = append(b.code, in)
}

// --- three-register ALU ops ---

// Add emits rd = rs1 + rs2.
func (b *Builder) Add(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpAdd, RD: rd, RS1: rs1, RS2: rs2})
}

// Sub emits rd = rs1 - rs2.
func (b *Builder) Sub(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpSub, RD: rd, RS1: rs1, RS2: rs2})
}

// And emits rd = rs1 & rs2.
func (b *Builder) And(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpAnd, RD: rd, RS1: rs1, RS2: rs2})
}

// Or emits rd = rs1 | rs2.
func (b *Builder) Or(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpOr, RD: rd, RS1: rs1, RS2: rs2})
}

// Xor emits rd = rs1 ^ rs2.
func (b *Builder) Xor(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpXor, RD: rd, RS1: rs1, RS2: rs2})
}

// Slt emits rd = (rs1 < rs2), signed.
func (b *Builder) Slt(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpSlt, RD: rd, RS1: rs1, RS2: rs2})
}

// Shl emits rd = rs1 << rs2.
func (b *Builder) Shl(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpShl, RD: rd, RS1: rs1, RS2: rs2})
}

// Shr emits rd = rs1 >> rs2 (logical).
func (b *Builder) Shr(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpShr, RD: rd, RS1: rs1, RS2: rs2})
}

// Mul emits rd = rs1 * rs2.
func (b *Builder) Mul(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpMul, RD: rd, RS1: rs1, RS2: rs2})
}

// Div emits rd = rs1 / rs2 (0 if rs2 == 0).
func (b *Builder) Div(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpDiv, RD: rd, RS1: rs1, RS2: rs2})
}

// Rem emits rd = rs1 % rs2 (0 if rs2 == 0).
func (b *Builder) Rem(rd, rs1, rs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpRem, RD: rd, RS1: rs1, RS2: rs2})
}

// --- immediate ALU ops ---

// Addi emits rd = rs1 + imm.
func (b *Builder) Addi(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpAddi, RD: rd, RS1: rs1, Imm: imm})
}

// Slti emits rd = (rs1 < imm), signed.
func (b *Builder) Slti(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpSlti, RD: rd, RS1: rs1, Imm: imm})
}

// Andi emits rd = rs1 & imm.
func (b *Builder) Andi(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpAndi, RD: rd, RS1: rs1, Imm: imm})
}

// Shli emits rd = rs1 << imm.
func (b *Builder) Shli(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpShli, RD: rd, RS1: rs1, Imm: imm})
}

// Shri emits rd = rs1 >> imm (logical).
func (b *Builder) Shri(rd, rs1 isa.Reg, imm int64) {
	b.emit(isa.Instr{Op: isa.OpShri, RD: rd, RS1: rs1, Imm: imm})
}

// Li loads the 64-bit constant v into rd (assembled as addi rd, r0, v;
// the ISA carries full-width immediates, standing in for the lui/ori
// pair a narrow-immediate machine would use).
func (b *Builder) Li(rd isa.Reg, v int64) { b.Addi(rd, isa.RegZero, v) }

// Mov copies rs into rd.
func (b *Builder) Mov(rd, rs isa.Reg) { b.Addi(rd, rs, 0) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.emit(isa.Instr{Op: isa.OpNop}) }

// --- memory ---

// Ld emits rd = mem[rs1 + disp].
func (b *Builder) Ld(rd, rs1 isa.Reg, disp int64) {
	b.emit(isa.Instr{Op: isa.OpLd, RD: rd, RS1: rs1, Imm: disp})
}

// St emits mem[rs1 + disp] = rs2.
func (b *Builder) St(rs2, rs1 isa.Reg, disp int64) {
	b.emit(isa.Instr{Op: isa.OpSt, RS2: rs2, RS1: rs1, Imm: disp})
}

// Ldf emits fd = mem[rs1 + disp].
func (b *Builder) Ldf(fd, rs1 isa.Reg, disp int64) {
	b.emit(isa.Instr{Op: isa.OpLdf, FD: fd, RS1: rs1, Imm: disp})
}

// Stf emits mem[rs1 + disp] = fs2.
func (b *Builder) Stf(fs2, rs1 isa.Reg, disp int64) {
	b.emit(isa.Instr{Op: isa.OpStf, FS2: fs2, RS1: rs1, Imm: disp})
}

// Swap emits the atomic exchange rd = mem[rs1+disp]; mem[rs1+disp] = rs2.
func (b *Builder) Swap(rd, rs1, rs2 isa.Reg, disp int64) {
	b.emit(isa.Instr{Op: isa.OpSwap, RD: rd, RS1: rs1, RS2: rs2, Imm: disp})
}

// --- floating point ---

// Fadd emits fd = fs1 + fs2.
func (b *Builder) Fadd(fd, fs1, fs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpFadd, FD: fd, FS1: fs1, FS2: fs2})
}

// Fsub emits fd = fs1 - fs2.
func (b *Builder) Fsub(fd, fs1, fs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpFsub, FD: fd, FS1: fs1, FS2: fs2})
}

// Fmul emits fd = fs1 * fs2.
func (b *Builder) Fmul(fd, fs1, fs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpFmul, FD: fd, FS1: fs1, FS2: fs2})
}

// Fdiv emits fd = fs1 / fs2.
func (b *Builder) Fdiv(fd, fs1, fs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpFdiv, FD: fd, FS1: fs1, FS2: fs2})
}

// Fneg emits fd = -fs1.
func (b *Builder) Fneg(fd, fs1 isa.Reg) { b.emit(isa.Instr{Op: isa.OpFneg, FD: fd, FS1: fs1}) }

// Fmov emits fd = fs1.
func (b *Builder) Fmov(fd, fs1 isa.Reg) { b.emit(isa.Instr{Op: isa.OpFmov, FD: fd, FS1: fs1}) }

// Fcvt emits fd = float64(rs1).
func (b *Builder) Fcvt(fd, rs1 isa.Reg) { b.emit(isa.Instr{Op: isa.OpFcvt, FD: fd, RS1: rs1}) }

// Fcmp emits rd = (fs1 < fs2).
func (b *Builder) Fcmp(rd, fs1, fs2 isa.Reg) {
	b.emit(isa.Instr{Op: isa.OpFcmp, RD: rd, FS1: fs1, FS2: fs2})
}

// Fli loads the float64 constant v into fd by interning it in the
// constant pool and emitting an absolute-addressed ldf.
func (b *Builder) Fli(fd isa.Reg, v float64) {
	b.Ldf(fd, isa.RegZero, b.floatConst(v))
}

// --- control flow ---

// Beq emits a branch to label when rs1 == rs2.
func (b *Builder) Beq(rs1, rs2 isa.Reg, label string) {
	b.emitBranch(isa.Instr{Op: isa.OpBeq, RS1: rs1, RS2: rs2}, label)
}

// Bne emits a branch to label when rs1 != rs2.
func (b *Builder) Bne(rs1, rs2 isa.Reg, label string) {
	b.emitBranch(isa.Instr{Op: isa.OpBne, RS1: rs1, RS2: rs2}, label)
}

// Blt emits a branch to label when rs1 < rs2 (signed).
func (b *Builder) Blt(rs1, rs2 isa.Reg, label string) {
	b.emitBranch(isa.Instr{Op: isa.OpBlt, RS1: rs1, RS2: rs2}, label)
}

// Bge emits a branch to label when rs1 >= rs2 (signed).
func (b *Builder) Bge(rs1, rs2 isa.Reg, label string) {
	b.emitBranch(isa.Instr{Op: isa.OpBge, RS1: rs1, RS2: rs2}, label)
}

// Jump emits an unconditional jump to label.
func (b *Builder) Jump(label string) {
	b.emitBranch(isa.Instr{Op: isa.OpJump}, label)
}

// Jal emits a call: rd = return PC, jump to label.
func (b *Builder) Jal(rd isa.Reg, label string) {
	b.emitBranch(isa.Instr{Op: isa.OpJal, RD: rd}, label)
}

// Jr emits an indirect jump to the address in rs1.
func (b *Builder) Jr(rs1 isa.Reg) { b.emit(isa.Instr{Op: isa.OpJr, RS1: rs1}) }

// --- synchronization & termination ---

// Lock emits an acquire of lock id.
func (b *Builder) Lock(id int64) { b.emit(isa.Instr{Op: isa.OpLock, Imm: id}) }

// Unlock emits a release of lock id.
func (b *Builder) Unlock(id int64) { b.emit(isa.Instr{Op: isa.OpUnlock, Imm: id}) }

// Barrier emits a wait on barrier id.
func (b *Builder) Barrier(id int64) { b.emit(isa.Instr{Op: isa.OpBarrier, Imm: id}) }

// Halt terminates the thread.
func (b *Builder) Halt() { b.emit(isa.Instr{Op: isa.OpHalt}) }

// --- structured helpers ---

// CountedLoop emits `for ; idx < bound; idx++ { body }`, with idx and
// bound live registers. The loop test is at the bottom (one conditional
// branch per iteration); a top guard skips empty loops.
func (b *Builder) CountedLoop(idx, bound isa.Reg, body func()) {
	n := b.Seq()
	top := fmt.Sprintf(".L%d_top", n)
	done := fmt.Sprintf(".L%d_done", n)
	b.Bge(idx, bound, done)
	b.Label(top)
	body()
	b.Addi(idx, idx, 1)
	b.Blt(idx, bound, top)
	b.Label(done)
}

// SteppedLoop is CountedLoop with a stride other than 1.
func (b *Builder) SteppedLoop(idx, bound isa.Reg, step int64, body func()) {
	n := b.Seq()
	top := fmt.Sprintf(".L%d_top", n)
	done := fmt.Sprintf(".L%d_done", n)
	b.Bge(idx, bound, done)
	b.Label(top)
	body()
	b.Addi(idx, idx, step)
	b.Blt(idx, bound, top)
	b.Label(done)
}

// IfThread0 emits body only for thread 0 (all other threads branch
// around it). Used for serial sections.
func (b *Builder) IfThread0(body func()) {
	skip := fmt.Sprintf(".L%d_skip", b.Seq())
	b.Bne(isa.RegTID, isa.RegZero, skip)
	body()
	b.Label(skip)
}

// Build resolves labels, patches branch displacements, validates every
// instruction and returns the immutable Program. It moves the builder's
// initial image into the program rather than copying it, so a builder
// builds once: a second Build returns an error.
func (b *Builder) Build() (*Program, error) {
	if b.built {
		return nil, fmt.Errorf("prog: %s: builder already built; its image belongs to that program", b.name)
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	code := make([]isa.Instr, len(b.code))
	copy(code, b.code)
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("prog: %s: undefined label %q", b.name, f.label)
		}
		// Branch displacement semantics: target PC = branch PC + Imm.
		code[f.pc].Imm = int64(target - f.pc)
	}
	for pc, in := range code {
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("prog: %s: pc %d: %w", b.name, pc, err)
		}
	}
	if len(code) == 0 || code[len(code)-1].Op != isa.OpHalt {
		return nil, fmt.Errorf("prog: %s: program must end with halt", b.name)
	}
	syms := make(map[string]Symbol, len(b.symbols))
	for k, v := range b.symbols {
		syms[k] = v
	}
	p := &Program{
		Name:      b.name,
		Code:      code,
		Entry:     0,
		DataEnd:   b.next,
		Symbols:   syms,
		PrefixLen: b.prefix,
	}
	// The builder's own arrays, grown to the whole data segment outside
	// the repeated extents if they are not already, so a workload filling
	// its globals never regrows them.
	b.init.moveTo(&p.Init, DataBase, b.next)
	b.built = true
	return p, nil
}

// MustBuild is Build but panics on error; for statically authored
// kernels whose correctness is covered by tests.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// SymbolsSorted returns the program's symbols ordered by address, for
// stable diagnostics output.
func (p *Program) SymbolsSorted() []Symbol {
	out := make([]Symbol, 0, len(p.Symbols))
	for _, s := range p.Symbols {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
