package workloads

import (
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// Mgrid is the SPEC95 multigrid analog: V-cycles over a three-level
// grid hierarchy. Smoothing at each level is parallel over rows, but
// the coarser levels have fewer rows than threads and the coarsest
// level plus the restrict/prolong transfers run serially on thread 0,
// so average thread parallelism sits between tomcatv's and swim's.
//
// Placement knobs (Figure 6a target: ~3.5 threads, ILP ~3.5):
// mgridMaxPar caps the fine-level parallelism; levels shrink it
// further; the 5-point smoother has a handful of independent FP ops.
func Mgrid() Workload {
	return Workload{
		Name:        "mgrid",
		Description: "3-level multigrid V-cycle (SPEC95 mgrid analog)",
		ParCap:      4,
		Build:       buildMgrid,
	}
}

func mgridParams(size Size) (n, cycles int64) {
	if size == SizeTest {
		return 16, 2
	}
	// 48x48 fine grid: the multigrid working set mostly fits the L1,
	// so the smoother is ILP-bound rather than memory-bound (the
	// paper's mgrid sits at mid ILP, where FA2 wins among the FAs).
	return 48, 2
}

func buildMgrid(threads, chips int, size Size) *prog.Program {
	n, cycles := mgridParams(size)
	b := prog.NewBuilder("mgrid")
	declareRuntime(b, threads, chips)

	n1, n2 := n/2, n/4
	g0 := b.Global("g0", n*n)
	g1 := b.Global("g1", n1*n1)
	g2 := b.Global("g2", n2*n2)
	g0n := b.Global("g0n", n*n)
	g1n := b.Global("g1n", n1*n1)
	b.Global("resid", 1)

	const (
		rCyc isa.Reg = 1
		rI   isa.Reg = 2
		rJ   isa.Reg = 3
		rRow isa.Reg = 4
		rA   isa.Reg = 5
		rJB  isa.Reg = 6
		rCB  isa.Reg = 8
	)
	const (
		fW  isa.Reg = 0
		fE  isa.Reg = 1
		fN  isa.Reg = 2
		fS  isa.Reg = 3
		fC  isa.Reg = 4
		fK  isa.Reg = 5
		fT0 isa.Reg = 6
		fAc isa.Reg = 7
	)

	// smooth emits a parallel 5-point Jacobi smoothing pass over the
	// interior of a level-g grid of dimension dim, with the given
	// parallelism cap. Results go to the shadow array gn and are copied
	// back after a barrier, so the outcome is independent of the row
	// partitioning (verified by tests).
	var barrierID int64
	smooth := func(g, gn, dim int64, lo, hi isa.Reg) {
		rowBytes := dim * prog.WordSize
		b.Mov(rI, lo)
		b.CountedLoop(rI, hi, func() {
			b.Li(rT0, rowBytes)
			b.Mul(rRow, rI, rT0)
			b.Li(rJ, 1)
			b.Li(rJB, dim-1)
			b.CountedLoop(rJ, rJB, func() {
				b.Shli(rA, rJ, 3)
				b.Add(rA, rA, rRow)
				b.Ldf(fW, rA, g-prog.WordSize)
				b.Ldf(fE, rA, g+prog.WordSize)
				b.Ldf(fN, rA, g-rowBytes)
				b.Ldf(fS, rA, g+rowBytes)
				b.Ldf(fC, rA, g)
				b.Fadd(fW, fW, fE)
				b.Fadd(fN, fN, fS)
				b.Fadd(fW, fW, fN)
				b.Fmul(fW, fW, fK)
				b.Fadd(fW, fW, fC)
				b.Fmul(fW, fW, fK)
				b.Stf(fW, rA, gn)
			})
		})
		b.Barrier(barrierID)
		barrierID++
		b.Mov(rI, lo)
		b.CountedLoop(rI, hi, func() {
			b.Li(rT0, rowBytes)
			b.Mul(rRow, rI, rT0)
			b.Li(rJ, 1)
			b.Li(rJB, dim-1)
			b.CountedLoop(rJ, rJB, func() {
				b.Shli(rA, rJ, 3)
				b.Add(rA, rA, rRow)
				b.Ldf(fT0, rA, gn)
				b.Stf(fT0, rA, g)
			})
		})
		b.Barrier(barrierID)
		barrierID++
	}

	// transfer emits a grid transfer: dst[i][j] = k * src[2i][2j]
	// (restriction) or the reverse injection (prolongation), parallel
	// over coarse rows up to the workload's parallelism cap.
	transfer := func(src, srcDim, dst, dstDim int64, down bool, lo, hi isa.Reg) {
		coarse := dstDim
		if !down {
			coarse = srcDim
		}
		{
			b.Mov(rI, lo)
			b.CountedLoop(rI, hi, func() {
				b.Li(rJ, 0)
				b.Li(rJB, coarse)
				b.CountedLoop(rJ, rJB, func() {
					// Coarse element offset.
					b.Li(rT0, coarse*prog.WordSize)
					b.Mul(rRow, rI, rT0)
					b.Shli(rA, rJ, 3)
					b.Add(rA, rA, rRow)
					// Fine element offset (2i, 2j).
					b.Shli(rT0, rI, 1)
					fineDim := srcDim
					if !down {
						fineDim = dstDim
					}
					b.Li(rT2, fineDim*prog.WordSize)
					b.Mul(rT0, rT0, rT2)
					b.Shli(rT2, rJ, 4) // 2j * 8
					b.Add(rT0, rT0, rT2)
					if down {
						b.Ldf(fT0, rT0, src)
						b.Fmul(fT0, fT0, fK)
						b.Stf(fT0, rA, dst)
					} else {
						b.Ldf(fT0, rA, src)
						b.Fmul(fT0, fT0, fK)
						b.Stf(fT0, rT0, dst)
					}
				})
			})
		}
		b.Barrier(barrierID)
		barrierID++
	}

	// Hoisted loop-invariant chunk bounds: fine rows, mid rows (half
	// the parallel width, mirroring the shrinking grids), and the two
	// transfer row sets.
	const (
		rFL  isa.Reg = 10
		rFH  isa.Reg = 11
		rML  isa.Reg = 12
		rMH  isa.Reg = 13
		rT1L isa.Reg = 14
		rT1H isa.Reg = 15
		rT2L isa.Reg = 16
		rT2H isa.Reg = 17
	)
	emitChunkTo(b, n-2, 4, rFL, rFH)
	b.Addi(rFL, rFL, 1)
	b.Addi(rFH, rFH, 1)
	emitChunkTo(b, n1-2, 2, rML, rMH)
	b.Addi(rML, rML, 1)
	b.Addi(rMH, rMH, 1)
	emitChunkTo(b, n1, 4, rT1L, rT1H)
	emitChunkTo(b, n2, 4, rT2L, rT2H)

	b.Fli(fK, 0.24)
	b.Li(rCyc, 0)
	b.Li(rCB, cycles)
	b.CountedLoop(rCyc, rCB, func() {
		start := barrierID
		smooth(g0, g0n, n, rFL, rFH)               // fine smooth, parallel
		transfer(g0, n, g1, n1, true, rT1L, rT1H)  // restrict
		smooth(g1, g1n, n1, rML, rMH)              // mid smooth, narrower
		smooth(g1, g1n, n1, rML, rMH)              // second mid pass
		transfer(g1, n1, g2, n2, true, rT2L, rT2H) // restrict
		// Coarsest solve: serial relaxation sweeps by thread 0.
		b.IfThread0(func() {
			b.Fli(fAc, 0.0)
			b.Li(rI, 1)
			b.Li(rT1, n2-1)
			b.CountedLoop(rI, rT1, func() {
				b.Li(rT0, n2*prog.WordSize)
				b.Mul(rRow, rI, rT0)
				b.Li(rJ, 1)
				b.Li(rJB, n2-1)
				b.CountedLoop(rJ, rJB, func() {
					b.Shli(rA, rJ, 3)
					b.Add(rA, rA, rRow)
					b.Ldf(fC, rA, g2)
					b.Fmul(fAc, fAc, fK) // serial chain
					b.Fadd(fAc, fAc, fC)
					b.Stf(fAc, rA, g2)
				})
			})
			b.Stf(fAc, isa.RegZero, b.MustAddr("resid"))
		})
		b.Barrier(barrierID)
		barrierID++
		transfer(g2, n2, g1, n1, false, rT2L, rT2H) // prolong
		smooth(g1, g1n, n1, rML, rMH)
		smooth(g1, g1n, n1, rML, rMH)              // second mid pass
		transfer(g1, n1, g0, n, false, rT1L, rT1H) // prolong
		smooth(g0, g0n, n, rFL, rFH)
		// Reset barrier ids so every cycle reuses the same set (the
		// generation counter in the sync controller disambiguates).
		barrierID = start
		_ = start
	})
	b.Halt()

	pr := b.MustBuild()
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			pr.Init.Set(g0+(i*n+j)*prog.WordSize, floatBits(0.8+0.01*float64((i*j)%23)))
		}
	}
	return pr
}
