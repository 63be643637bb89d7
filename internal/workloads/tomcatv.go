package workloads

import (
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// Tomcatv is the SPEC95 mesh-generation analog: row-by-row sweeps over
// two coordinate arrays where each row depends on the previous one, so
// the only loop parallelism is across two independent column panels;
// within a row, column updates are independent and FP-rich (high ILP).
// A serial recurrence sweep (the tridiagonal solve stand-in) runs on
// thread 0 each step.
//
// Placement knobs (Figure 6a target: ~2 threads, ILP ~4.5): panel
// count 2 caps thread parallelism; ~14 independent FP ops per point
// raise per-thread ILP; the serial solve is a long low-ILP chain.
func Tomcatv() Workload {
	return Workload{
		Name:        "tomcatv",
		Description: "vectorized mesh generation, 2 panels (SPEC95 tomcatv analog)",
		ParCap:      2,
		Build:       buildTomcatv,
	}
}

func tomcatvParams(size Size) (n, steps int64) {
	if size == SizeTest {
		return 16, 2
	}
	return 32, 3
}

func buildTomcatv(threads, chips int, size Size) *prog.Program {
	n, steps := tomcatvParams(size)
	b := prog.NewBuilder("tomcatv")
	declareRuntime(b, threads, chips)

	x := b.Global("x", n*n)
	y := b.Global("y", n*n)
	xn := b.Global("xn", n*n)
	yn := b.Global("yn", n*n)
	rx := b.Global("rx", n*n)
	ry := b.Global("ry", n*n)
	b.Global("resid", 1)

	const (
		rStep isa.Reg = 1
		rI    isa.Reg = 2
		rJ    isa.Reg = 3
		rRow  isa.Reg = 4
		rA    isa.Reg = 5
		rJB   isa.Reg = 6
		rIB   isa.Reg = 7
		rSB   isa.Reg = 8
	)
	const (
		fXW isa.Reg = 0
		fXE isa.Reg = 1
		fXN isa.Reg = 2
		fXS isa.Reg = 3
		fYW isa.Reg = 4
		fYE isa.Reg = 5
		fYN isa.Reg = 6
		fYS isa.Reg = 7
		fA  isa.Reg = 8
		fB2 isa.Reg = 9
		fC  isa.Reg = 10
		fD  isa.Reg = 11
		fT0 isa.Reg = 12
		fT1 isa.Reg = 13
		fK1 isa.Reg = 14
		fK2 isa.Reg = 15
		fRe isa.Reg = 16
		fX2 isa.Reg = 17
		fY2 isa.Reg = 18
		fX3 isa.Reg = 19
		fY3 isa.Reg = 20
	)
	rowBytes := n * prog.WordSize

	// Hoisted loop-invariant bounds: the 2-panel column split for the
	// mesh sweep and a fully parallel row split for the copy-back (the
	// copy loop has no dependences, so the parallelizer uses every
	// thread there).
	const (
		rRLO isa.Reg = 11
		rRHI isa.Reg = 12
	)
	emitChunk(b, n-2, 2)
	b.Addi(rLO, rLO, 1)
	b.Addi(rHI, rHI, 1)
	// Copy-back rows are shared by the slave threads only (ANL-style
	// master/slave schedule): the master overlaps the serial residual
	// recurrence with the copy loop. A single-thread run keeps the
	// whole range.
	b.Li(rT0, 1)
	b.Bne(rNTH, rT0, ".tc_multi")
	b.Li(rRLO, 1)
	b.Li(rRHI, n-1)
	b.Jump(".tc_ckdone")
	b.Label(".tc_multi")
	b.Beq(rTID, isa.RegZero, ".tc_master")
	b.Addi(rT1, rNTH, -1) // slave count
	b.Addi(rT2, rTID, -1) // slave index
	b.Li(rT0, n-2)
	b.Mul(rRLO, rT2, rT0)
	b.Div(rRLO, rRLO, rT1)
	b.Addi(rRLO, rRLO, 1)
	b.Addi(rT2, rT2, 1)
	b.Mul(rRHI, rT2, rT0)
	b.Div(rRHI, rRHI, rT1)
	b.Addi(rRHI, rRHI, 1)
	b.Jump(".tc_ckdone")
	b.Label(".tc_master")
	b.Li(rRLO, 0)
	b.Li(rRHI, 0)
	b.Label(".tc_ckdone")

	b.Fli(fK1, 0.25)
	b.Fli(fK2, 0.5)
	b.Li(rStep, 0)
	b.Li(rSB, steps)
	b.CountedLoop(rStep, rSB, func() {
		// --- parallel over 2 column panels; rows sweep serially ---
		b.Li(rI, 1)
		b.Li(rIB, n-1)
		b.CountedLoop(rI, rIB, func() {
			b.Li(rT0, rowBytes)
			b.Mul(rRow, rI, rT0)
			b.Mov(rJ, rLO)
			b.Mov(rJB, rHI)
			b.CountedLoop(rJ, rJB, func() {
				b.Shli(rA, rJ, 3)
				b.Add(rA, rA, rRow)
				// Eight neighbor loads (x and y, 4 directions).
				b.Ldf(fXW, rA, x-prog.WordSize)
				b.Ldf(fXE, rA, x+prog.WordSize)
				b.Ldf(fXN, rA, x-rowBytes)
				b.Ldf(fXS, rA, x+rowBytes)
				b.Ldf(fYW, rA, y-prog.WordSize)
				b.Ldf(fYE, rA, y+prog.WordSize)
				b.Ldf(fYN, rA, y-rowBytes)
				b.Ldf(fYS, rA, y+rowBytes)
				// Independent metric terms: wide, flat dataflow. The
				// two quadratic forms plus the cross terms give ~20
				// independent FP ops per point, so a pair of 4-issue
				// clusters extracts more than one 8-issue core can
				// (fetch and window limits bite first on FA1).
				b.Fsub(fA, fXE, fXW)
				b.Fsub(fB2, fXS, fXN)
				b.Fsub(fC, fYE, fYW)
				b.Fsub(fD, fYS, fYN)
				b.Fmul(fA, fA, fA)
				b.Fmul(fB2, fB2, fB2)
				b.Fmul(fC, fC, fC)
				b.Fmul(fD, fD, fD)
				b.Fadd(fT0, fA, fC)
				b.Fadd(fT1, fB2, fD)
				b.Fmul(fT0, fT0, fK1)
				b.Fmul(fT1, fT1, fK1)
				// Cross-derivative terms (independent of the above).
				b.Fadd(fX2, fXE, fXW)
				b.Fadd(fY2, fYE, fYW)
				b.Fmul(fX2, fX2, fK2)
				b.Fmul(fY2, fY2, fK2)
				b.Fadd(fX3, fXN, fXS)
				b.Fadd(fY3, fYN, fYS)
				b.Fmul(fX3, fX3, fK1)
				b.Fmul(fY3, fY3, fK1)
				b.Fsub(fX2, fX2, fX3)
				b.Fsub(fY2, fY2, fY3)
				b.Fmul(fX2, fX2, fX2)
				b.Fmul(fY2, fY2, fY2)
				b.Fadd(fT0, fT0, fX2)
				b.Fadd(fT1, fT1, fY2)
				b.Stf(fT0, rA, rx)
				b.Stf(fT1, rA, ry)
				// Relax the coordinates toward neighbor means
				// (Jacobi: written to the shadow arrays so the result
				// is independent of the panel partitioning).
				b.Fadd(fA, fXE, fXW)
				b.Fadd(fB2, fXN, fXS)
				b.Fadd(fA, fA, fB2)
				b.Fmul(fA, fA, fK1)
				b.Stf(fA, rA, xn)
				b.Fadd(fC, fYE, fYW)
				b.Fadd(fD, fYN, fYS)
				b.Fadd(fC, fC, fD)
				b.Fmul(fC, fC, fK1)
				b.Stf(fC, rA, yn)
			})
		})
		b.Barrier(0)

		// --- overlapped tail: the master runs the serial residual
		// recurrence while the slaves share the copy-back loop (the
		// two touch disjoint data, so one barrier closes both) ---
		b.IfThread0(func() {
			b.Fli(fRe, 1.0)
			b.Li(rI, 0)
			b.Li(rIB, n/2)
			b.CountedLoop(rI, rIB, func() {
				// Chain: re = k2 + k1*re - rx-sample/(re+2): serial FP
				// dependence with a divide, ILP ~1.
				b.Li(rT2, n-2)
				b.Rem(rA, rI, rT2)
				b.Shli(rA, rA, 3)
				b.Ldf(fT0, rA, rx+rowBytes)
				b.Fmul(fT1, fRe, fK1)
				b.Fadd(fT1, fT1, fK2)
				b.Fadd(fT0, fT0, fT1)
				b.Fdiv(fRe, fT1, fT0)
			})
			b.Stf(fRe, isa.RegZero, b.MustAddr("resid"))
		})
		b.Mov(rI, rRLO)
		b.CountedLoop(rI, rRHI, func() {
			b.Li(rT0, rowBytes)
			b.Mul(rRow, rI, rT0)
			b.Li(rJ, 1)
			b.Li(rJB, n-1)
			b.CountedLoop(rJ, rJB, func() {
				b.Shli(rA, rJ, 3)
				b.Add(rA, rA, rRow)
				b.Ldf(fT0, rA, xn)
				b.Stf(fT0, rA, x)
				b.Ldf(fT1, rA, yn)
				b.Stf(fT1, rA, y)
			})
		})
		b.Barrier(1)
	})
	b.Halt()

	pr := b.MustBuild()
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			off := (i*n + j) * prog.WordSize
			pr.Init.Set(x+off, floatBits(float64(j)+0.03*float64(i)))
			pr.Init.Set(y+off, floatBits(float64(i)-0.02*float64(j)))
		}
	}
	return pr
}
