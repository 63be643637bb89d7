package workloads

import (
	"fmt"

	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// Fmm is the SPLASH-2 fast-multipole analog: an N-body force
// computation with an irregular interaction structure. Bodies are
// distributed across threads, but each body's interaction list has a
// deterministic pseudo-random length (load imbalance), every force
// evaluation contains an unpipelined divide (softened inverse-square),
// and each body's contribution is accumulated into its home cell under
// a per-cell lock. A serial "tree build" pass runs on thread 0 each
// step.
//
// Placement knobs (Figure 6a target: ~4.5 threads, ILP ~2.5): the
// imbalanced lists and serial pass pull average threads below 8; the
// divide chain holds ILP down without flattening it.
func Fmm() Workload {
	return Workload{
		Name:        "fmm",
		Description: "irregular N-body force sums with cell locks (SPLASH-2 fmm analog)",
		ParCap:      6,
		Build:       buildFmm,
	}
}

const (
	fmmCells = 4 // lock ids 10..10+fmmCells-1
)

func fmmParams(size Size) (bodies, steps int64) {
	if size == SizeTest {
		return 96, 1
	}
	return 256, 2
}

func buildFmm(threads, chips int, size Size) *prog.Program {
	bodies, steps := fmmParams(size)
	b := prog.NewBuilder("fmm")
	declareRuntime(b, threads, chips)

	posx := b.Global("posx", bodies)
	posy := b.Global("posy", bodies)
	frcx := b.Global("frcx", bodies)
	frcy := b.Global("frcy", bodies)
	nint := b.Global("nint", bodies) // interaction-list length per body
	cellAcc := b.Global("cellacc", fmmCells)
	b.Global("treework", 1)

	const (
		rStep isa.Reg = 1
		rB    isa.Reg = 2 // body index
		rN    isa.Reg = 3 // neighbor counter
		rNB   isa.Reg = 4 // neighbor bound (list length)
		rAB   isa.Reg = 5 // body byte offset
		rAN   isa.Reg = 6 // neighbor byte offset
		rCell isa.Reg = 7
		rSB   isa.Reg = 8
		rT3   isa.Reg = 9
	)
	const (
		fPX  isa.Reg = 0
		fPY  isa.Reg = 1
		fQX  isa.Reg = 2
		fQY  isa.Reg = 3
		fDX  isa.Reg = 4
		fDY  isa.Reg = 5
		fR2  isa.Reg = 6
		fInv isa.Reg = 7
		fFX  isa.Reg = 8
		fFY  isa.Reg = 9
		fEps isa.Reg = 10
		fT0  isa.Reg = 11
		fAcc isa.Reg = 12
	)

	b.Fli(fEps, 0.05)
	// Hoisted loop-invariant body distribution.
	emitChunk(b, bodies, 6)
	b.Li(rStep, 0)
	b.Li(rSB, steps)
	b.CountedLoop(rStep, rSB, func() {
		// --- serial tree build by thread 0 ---
		// Center-of-mass accumulation: several independent FP ops per
		// body plus a short carried chain, so a wide cluster speeds
		// this serial section up (the paper's Amdahl argument for
		// wide-issue serial execution).
		b.IfThread0(func() {
			b.Fli(fAcc, 1.0)
			b.Li(rB, 0)
			b.Li(rT3, bodies)
			b.CountedLoop(rB, rT3, func() {
				b.Shli(rAB, rB, 3)
				b.Ldf(fT0, rAB, posx)
				b.Ldf(fQX, rAB, posy)
				b.Fmul(fT0, fT0, fT0)
				b.Fmul(fQX, fQX, fQX)
				b.Fadd(fT0, fT0, fQX)
				b.Fmul(fT0, fT0, fEps)
				b.Fadd(fAcc, fAcc, fT0) // carried add (1 cycle)
			})
			b.Stf(fAcc, isa.RegZero, b.MustAddr("treework"))
		})
		b.Barrier(0)

		// --- parallel force phase over bodies ---
		b.Mov(rB, rLO)
		b.CountedLoop(rB, rHI, func() {
			b.Shli(rAB, rB, 3)
			b.Ldf(fPX, rAB, posx)
			b.Ldf(fPY, rAB, posy)
			b.Fli(fFX, 0.0)
			b.Fli(fFY, 0.0)
			// Interaction list length is data-driven: loaded per body.
			b.Ld(rNB, rAB, nint)
			b.Li(rN, 0)
			b.Fli(fInv, 0.3)
			b.CountedLoop(rN, rNB, func() {
				// Neighbor index = (body*7 + n*13) mod bodies.
				b.Li(rT0, 7)
				b.Mul(rT1, rB, rT0)
				b.Li(rT0, 13)
				b.Mul(rT2, rN, rT0)
				b.Add(rT1, rT1, rT2)
				b.Li(rT0, bodies)
				b.Rem(rT1, rT1, rT0)
				b.Shli(rAN, rT1, 3)
				b.Ldf(fQX, rAN, posx)
				b.Ldf(fQY, rAN, posy)
				b.Fsub(fDX, fQX, fPX)
				b.Fsub(fDY, fQY, fPY)
				b.Fmul(fR2, fDX, fDX)
				b.Fmul(fT0, fDY, fDY)
				b.Fadd(fR2, fR2, fT0)
				// Adaptive softening: the softening term carries the
				// previous interaction's kernel value, a loop-carried
				// chain through the unpipelined divide (~10 cycles)
				// that pins per-thread ILP near the paper's fmm point.
				b.Fmul(fT0, fInv, fEps)
				b.Fadd(fR2, fR2, fT0)
				b.Fdiv(fInv, fEps, fR2)
				b.Fmul(fDX, fDX, fInv)
				b.Fmul(fDY, fDY, fInv)
				b.Fadd(fFX, fFX, fDX)
				b.Fadd(fFY, fFY, fDY)
			})
			b.Stf(fFX, rAB, frcx)
			b.Stf(fFY, rAB, frcy)

			// Accumulate into the body's home cell under its lock.
			b.Li(rT0, fmmCells)
			b.Rem(rCell, rB, rT0)
			// Lock id = 10 + cell. Lock ids are immediates, so branch
			// over a small dispatch table.
			emitCellLocked(b, rCell, func() {
				b.Shli(rT1, rCell, 3)
				b.Ldf(fT0, rT1, cellAcc)
				b.Fadd(fT0, fT0, fFX)
				b.Stf(fT0, rT1, cellAcc)
			})
		})
		b.Barrier(1)
	})
	b.Halt()

	pr := b.MustBuild()
	for i := int64(0); i < bodies; i++ {
		pr.Init.Set(posx+i*prog.WordSize, floatBits(float64(i%17)*0.3))
		pr.Init.Set(posy+i*prog.WordSize, floatBits(float64(i%23)*0.2))
		// Imbalanced interaction lists: quadratic ramp 4..28-ish.
		ln := 4 + (i*i)%25
		pr.Init.Set(nint+i*prog.WordSize, uint64(ln))
	}
	return pr
}

// emitCellLocked wraps body in lock/unlock of lock id 10+cell, where
// cell (0..fmmCells-1) is a runtime value in reg. Lock ids are
// instruction immediates, so this emits a small dispatch over the
// possible cells — the shape a real runtime's lock-array indexing
// would compile to on this ISA.
func emitCellLocked(b *prog.Builder, cellReg isa.Reg, body func()) {
	cellSeq := b.Seq() // per-builder: concurrent builds share no state
	done := labelf(".cell%d_done", cellSeq)
	for c := int64(0); c < fmmCells; c++ {
		next := labelf(".cell%d_n%d", cellSeq, c)
		b.Li(rT0, c)
		b.Bne(cellReg, rT0, next)
		b.Lock(10 + c)
		body()
		b.Unlock(10 + c)
		b.Jump(done)
		b.Label(next)
	}
	b.Label(done)
}

func labelf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
