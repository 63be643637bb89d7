package workloads

import (
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// Ocean is the SPLASH-2 ocean analog: red-black Gauss-Seidel relaxation
// over a grid deliberately larger than the L1 cache, fully parallel
// over rows with only a tiny serial residual check. High thread
// parallelism plus memory-bound per-thread execution puts it in the
// lower-right corner of Figure 6a (~7 threads, ILP ~1.5).
func Ocean() Workload {
	return Workload{
		Name:        "ocean",
		Description: "red-black relaxation on an L1-exceeding grid (SPLASH-2 ocean analog)",
		ParCap:      0,
		Build:       buildOcean,
	}
}

func oceanParams(size Size) (n, steps int64) {
	if size == SizeTest {
		return 32, 1
	}
	// 72x72 x 8B x 2 arrays = 81 KiB: larger than the 64 KiB L1, so
	// steady-state relaxation carries miss latency without drowning
	// the narrow-cluster configurations in bandwidth contention.
	return 72, 2
}

func buildOcean(threads, chips int, size Size) *prog.Program {
	n, steps := oceanParams(size)
	b := prog.NewBuilder("ocean")
	declareRuntime(b, threads, chips)

	q := b.Global("q", n*n)
	rhs := b.Global("rhs", n*n)
	b.Global("resid", 1)

	const (
		rStep  isa.Reg = 1
		rI     isa.Reg = 2
		rJ     isa.Reg = 3
		rRow   isa.Reg = 4
		rA     isa.Reg = 5
		rJB    isa.Reg = 6
		rColor isa.Reg = 7
		rSB    isa.Reg = 8
		rPar   isa.Reg = 9
	)
	const (
		fW   isa.Reg = 0
		fE   isa.Reg = 1
		fN   isa.Reg = 2
		fS   isa.Reg = 3
		fR   isa.Reg = 4
		fK   isa.Reg = 5
		fT0  isa.Reg = 6
		fAc  isa.Reg = 7
		fK2  isa.Reg = 8
		fT1  isa.Reg = 9
		fTwo isa.Reg = 10
	)
	rowBytes := n * prog.WordSize

	// sweep emits one red/black half-sweep (color = 0 or 1) over this
	// thread's rows. Within a row, each cell reads the same-color cell
	// two columns back — written on the previous iteration — and
	// divides by a rho factor derived from it (SOR with a varying
	// coefficient). The store-to-load dependence plus the unpipelined
	// divide put ~13 cycles of strictly serial work on every cell, so
	// per-thread throughput is chain-bound on wide clusters and issue-
	// bound on narrow ones: exactly the regime where thread count is
	// everything, ocean's corner of Figure 6. Same-thread, same-row:
	// deterministic under any partitioning.
	sweep := func(color int64) {
		b.Mov(rI, rLO)
		b.CountedLoop(rI, rHI, func() {
			b.Li(rT0, rowBytes)
			b.Mul(rRow, rI, rT0)
			// First column of this color in row i: 1 + (i+color)%2;
			// rA walks (i*n + j)*8 with stride 16 (every other cell).
			b.Addi(rT1, rI, color)
			b.Andi(rT1, rT1, 1)
			b.Addi(rT1, rT1, 1)
			b.Shli(rT1, rT1, 3)
			b.Add(rA, rRow, rT1)
			b.Addi(rJB, rRow, (n-1)*prog.WordSize)
			b.SteppedLoop(rA, rJB, 2*prog.WordSize, func() {
				b.Ldf(fW, rA, q-prog.WordSize)
				b.Ldf(fE, rA, q+prog.WordSize)
				b.Ldf(fN, rA, q-rowBytes)
				b.Ldf(fS, rA, q+rowBytes)
				b.Ldf(fR, rA, rhs)
				b.Ldf(fT0, rA, q-2*prog.WordSize) // GS: just written
				b.Fadd(fW, fW, fE)
				b.Fadd(fN, fN, fS)
				b.Fadd(fW, fW, fN)
				b.Fsub(fW, fW, fR)
				b.Fmul(fT1, fT0, fK2)
				b.Fadd(fW, fW, fT1)
				b.Fadd(fT0, fT0, fTwo) // rho = gs-cell + 2 (chained)
				b.Fdiv(fW, fW, fT0)
				b.Stf(fW, rA, q)
			})
		})
	}

	b.Fli(fK, 0.25)
	b.Fli(fK2, 0.125)
	b.Fli(fTwo, 2.0)
	// Hoisted loop-invariant column distribution.
	emitChunk(b, n-2, 0)
	b.Addi(rLO, rLO, 1)
	b.Addi(rHI, rHI, 1)
	b.Li(rStep, 0)
	b.Li(rSB, steps)
	b.CountedLoop(rStep, rSB, func() {
		b.Li(rColor, 0)
		sweep(0)
		b.Barrier(0)
		sweep(1)
		b.Barrier(1)

		// Tiny serial residual sample by thread 0.
		b.IfThread0(func() {
			b.Fli(fAc, 0.0)
			b.Li(rJ, 1)
			b.Li(rJB, n-1)
			b.CountedLoop(rJ, rJB, func() {
				b.Shli(rA, rJ, 3)
				b.Ldf(fT0, rA, q+rowBytes)
				b.Fadd(fAc, fAc, fT0)
			})
			b.Stf(fAc, isa.RegZero, b.MustAddr("resid"))
		})
		b.Barrier(2)
		_ = rPar
	})
	b.Halt()

	pr := b.MustBuild()
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			off := (i*n + j) * prog.WordSize
			pr.Init.Set(q+off, floatBits(0.5+0.001*float64((i*31+j*7)%101)))
			pr.Init.Set(rhs+off, floatBits(0.1*float64((i+j)%5)))
		}
	}
	return pr
}
