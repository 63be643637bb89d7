// Package workloads provides the six parallel applications of §4 as
// kernels in the clustersmt ISA: swim, tomcatv and mgrid (SPEC95),
// vpenta (NASA7), and fmm and ocean (SPLASH-2).
//
// The originals are unreproducible here (MIPS2 binaries under MINT,
// Polaris-parallelized Fortran), so each kernel is a real computation
// of the same family — stencils, mesh sweeps, multigrid cycles,
// pentadiagonal solves, N-body force sums, red-black relaxation —
// engineered to occupy the same point in the (thread parallelism ×
// ILP-per-thread) plane that the paper measures in Figure 6. The knobs
// that place them there (parallel width, serial-section size,
// dependence-chain length, working-set size) are documented per kernel
// and pinned by tests. See DESIGN.md for the substitution rationale.
package workloads

import (
	"fmt"
	"math"
	"strings"

	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// floatBits is math.Float64bits, shortened for the init tables.
func floatBits(v float64) uint64 { return math.Float64bits(v) }

// Size selects the input scale.
type Size int

// Input scales: SizeTest keeps unit tests fast; SizeRef is used for the
// paper-figure reproductions (bigger grids, more time steps).
const (
	SizeTest Size = iota
	SizeRef
)

func (s Size) String() string {
	if s == SizeTest {
		return "test"
	}
	return "ref"
}

// ParseSize returns the size a name spells ("test" or "ref", in any
// case), or an error naming both.
func ParseSize(name string) (Size, error) {
	switch strings.ToLower(name) {
	case "test":
		return SizeTest, nil
	case "ref":
		return SizeRef, nil
	}
	return 0, fmt.Errorf("workloads: unknown size %q (want test or ref)", name)
}

// Workload is one application.
type Workload struct {
	Name        string
	Description string
	// Build assembles the kernel for the given machine shape (total
	// hardware contexts and chips; the runtime uses the chip count for
	// affinity-aware loop scheduling).
	Build func(threads, chips int, size Size) *prog.Program
	// ParCap is the number of contexts the dominant parallel loops can
	// occupy per 8 hardware contexts (0 = all of them). It scales with
	// the machine — the runtime partitions outer loops per chip-sized
	// context group — and is the calibrated stand-in for each original
	// application's measured thread-level parallelism (Figure 6).
	ParCap int
}

// All returns the six applications in the paper's presentation order.
func All() []Workload {
	return []Workload{
		Swim(), Tomcatv(), Mgrid(), Vpenta(), Fmm(), Ocean(),
	}
}

// Extras returns the bonus workloads beyond the paper's six: radix (an
// integer-only sort) and lu (dense factorization with tapering
// parallelism). They are not part of the figure reproductions.
func Extras() []Workload {
	return []Workload{Radix(), LU()}
}

// ByName returns the named workload, searching the paper's six, the
// extras, and — for canonical "synth(...)" names — the synthetic
// generator (ParseSynthetic), so sweep-grid points are addressable
// wherever the applications are (the serving subsystem in particular).
func ByName(name string) (Workload, error) {
	for _, w := range append(All(), Extras()...) {
		if w.Name == name {
			return w, nil
		}
	}
	if strings.HasPrefix(name, "synth(") {
		return ParseSynthetic(name)
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Register conventions shared by all kernels. Each kernel is a single
// straight-line function (no calls), so registers are allocated
// statically per kernel; these common ones keep the builders readable.
const (
	rTID isa.Reg = 30 // thread id (isa.RegTID)
	rNTH isa.Reg = 28 // total threads (loaded from the nthreads global)
	rEFF isa.Reg = 27 // effective parallel width for the current loop
	rLO  isa.Reg = 26 // chunk lower bound
	rHI  isa.Reg = 25 // chunk upper bound
	rT0  isa.Reg = 24 // scratch
	rT1  isa.Reg = 23 // scratch
	rT2  isa.Reg = 22 // scratch
)

// declareRuntime reserves the machine-shape globals and emits the
// standard prologue loading the thread count; every kernel calls this
// first.
func declareRuntime(b *prog.Builder, threads, chips int) {
	b.GlobalWords("nthreads", []uint64{uint64(threads)})
	b.GlobalWords("nchips", []uint64{uint64(chips)})
	b.Mov(rTID, isa.RegTID)
	b.Ld(rNTH, 0, b.MustAddr("nthreads"))
}

// emitChunkTo computes this thread's [lo, hi) slice of total iterations
// distributed block-wise over an effective width of
// min(nthreads, cap × max(1, nthreads/8)) threads (cap 0 uses every
// thread), leaving the bounds in the given registers. Threads beyond
// the effective width receive an empty chunk — they proceed straight to
// the next barrier, which is exactly how limited loop parallelism
// starves wide FA machines in the paper; on multi-chip machines the cap
// scales with the context count (the runtime partitions outer loops per
// chip-sized context group).
//
// Kernels hoist these computations ahead of their time-step loops (the
// bounds are loop-invariant), as any real compiler would.
func emitChunkTo(b *prog.Builder, total int64, cap int, lo, hi isa.Reg) {
	seq := b.Seq()
	grpOK := fmt.Sprintf(".ck%d_grpok", seq)
	capOK := fmt.Sprintf(".ck%d_capok", seq)
	empty := fmt.Sprintf(".ck%d_empty", seq)
	done := fmt.Sprintf(".ck%d_done", seq)

	if cap > 0 {
		// groups = max(1, nth/8); eff = min(nth, cap*groups).
		b.Shri(rEFF, rNTH, 3)
		b.Li(rT0, 1)
		b.Bge(rEFF, rT0, grpOK)
		b.Li(rEFF, 1)
		b.Label(grpOK)
		b.Li(rT0, int64(cap))
		b.Mul(rEFF, rEFF, rT0)
		b.Bge(rNTH, rEFF, capOK)
		b.Mov(rEFF, rNTH)
		b.Label(capOK)
	} else {
		b.Mov(rEFF, rNTH)
	}
	b.Bge(rTID, rEFF, empty)

	// Affinity remap: thread ids interleave across chips (SPMD
	// placement), but adjacent data chunks should live on the same
	// chip to keep halo traffic on-chip. When the worker count divides
	// evenly over the chips, worker w on chip c = w % nchips takes
	// chunk c*(eff/nchips) + w/nchips; otherwise chunks follow worker
	// rank directly. lo is used as the chunk-index scratch.
	plain := fmt.Sprintf(".ck%d_plain", seq)
	remapped := fmt.Sprintf(".ck%d_remap", seq)
	b.Ld(rT1, 0, b.MustAddr("nchips"))
	b.Rem(rT2, rEFF, rT1)
	b.Bne(rT2, isa.RegZero, plain)
	b.Div(rT2, rEFF, rT1) // per-chip worker count
	b.Beq(rT2, isa.RegZero, plain)
	b.Rem(lo, rTID, rT1) // chip index
	b.Mul(lo, lo, rT2)
	b.Div(rT2, rTID, rT1) // within-chip worker index
	b.Add(lo, lo, rT2)
	b.Jump(remapped)
	b.Label(plain)
	b.Mov(lo, rTID)
	b.Label(remapped)

	b.Li(rT0, total)
	b.Addi(hi, lo, 1)
	b.Mul(lo, lo, rT0)
	b.Div(lo, lo, rEFF)
	b.Mul(hi, hi, rT0)
	b.Div(hi, hi, rEFF)
	b.Jump(done)
	b.Label(empty)
	b.Li(lo, 0)
	b.Li(hi, 0)
	b.Label(done)
}

// emitChunk is emitChunkTo targeting the conventional rLO/rHI pair.
func emitChunk(b *prog.Builder, total int64, cap int) {
	emitChunkTo(b, total, cap, rLO, rHI)
}
