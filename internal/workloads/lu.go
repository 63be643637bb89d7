package workloads

import (
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// LU is a bonus workload beyond the paper's six: dense LU factorization
// without pivoting (the SPLASH-2 lu analog). Each elimination step k
// scales column k below the diagonal (parallel over rows), then updates
// the trailing submatrix (parallel over rows), with a barrier per
// phase. Parallelism tapers naturally as the active submatrix shrinks —
// a thread-parallelism profile that *changes over time*, unlike the six
// calibrated kernels.
func LU() Workload {
	return Workload{
		Name:        "lu",
		Description: "dense LU factorization without pivoting (SPLASH-2 lu analog; extension)",
		ParCap:      0,
		Build:       buildLU,
	}
}

func luParams(size Size) (n int64) {
	if size == SizeTest {
		return 24
	}
	return 48
}

func buildLU(threads, chips int, size Size) *prog.Program {
	n := luParams(size)
	b := prog.NewBuilder("lu")
	declareRuntime(b, threads, chips)
	a := b.Global("a", n*n)
	b.Global("det", 1)

	const (
		rK    isa.Reg = 1 // elimination step
		rI    isa.Reg = 2 // row
		rJ    isa.Reg = 3 // column
		rAddr isa.Reg = 4
		rKB   isa.Reg = 5
		rRowI isa.Reg = 6 // row i byte offset
		rRowK isa.Reg = 7 // row k byte offset
		rJB   isa.Reg = 8
		rKN   isa.Reg = 9  // k as byte offset (column)
		rLo   isa.Reg = 10 // per-step row chunk lo
		rHi   isa.Reg = 11 // per-step row chunk hi
		rCnt  isa.Reg = 12 // active row count
	)
	const (
		fPiv  isa.Reg = 0 // 1/a[k][k]
		fMult isa.Reg = 1
		fAkj  isa.Reg = 2
		fAij  isa.Reg = 3
		fOne  isa.Reg = 4
		fDet  isa.Reg = 5
	)
	rowBytes := n * prog.WordSize

	b.Fli(fOne, 1.0)
	b.Fli(fDet, 1.0)
	b.Li(rK, 0)
	b.Li(rKB, n-1)
	b.CountedLoop(rK, rKB, func() {
		// Row-k and column-k offsets, and the per-step chunk of the
		// active rows k+1..n-1, recomputed each step (the bounds change
		// with k, so they cannot be hoisted).
		b.Li(rT0, rowBytes)
		b.Mul(rRowK, rK, rT0)
		b.Shli(rKN, rK, 3)
		// Active rows: cnt = n-1-k, distributed over all threads:
		// lo = k+1 + tid*cnt/nth, hi = k+1 + (tid+1)*cnt/nth.
		b.Li(rCnt, n-1)
		b.Sub(rCnt, rCnt, rK)
		b.Mul(rLo, rTID, rCnt)
		b.Div(rLo, rLo, rNTH)
		b.Addi(rT0, rTID, 1)
		b.Mul(rHi, rT0, rCnt)
		b.Div(rHi, rHi, rNTH)
		b.Addi(rT0, rK, 1)
		b.Add(rLo, rLo, rT0)
		b.Add(rHi, rHi, rT0)

		// The pivot reciprocal is read by every thread (the value was
		// finalized before the previous barrier).
		b.Add(rAddr, rRowK, rKN)
		b.Ldf(fPiv, rAddr, a)
		b.Fdiv(fPiv, fOne, fPiv)

		// Scale the thread's share of column k and update its rows.
		b.Mov(rI, rLo)
		b.CountedLoop(rI, rHi, func() {
			b.Li(rT0, rowBytes)
			b.Mul(rRowI, rI, rT0)
			b.Add(rAddr, rRowI, rKN)
			b.Ldf(fMult, rAddr, a)
			b.Fmul(fMult, fMult, fPiv)
			b.Stf(fMult, rAddr, a) // a[i][k] = multiplier
			// Trailing update: a[i][j] -= mult * a[k][j], j > k.
			b.Addi(rJ, rKN, prog.WordSize)
			b.Li(rJB, rowBytes)
			b.SteppedLoop(rJ, rJB, prog.WordSize, func() {
				b.Add(rAddr, rRowK, rJ)
				b.Ldf(fAkj, rAddr, a)
				b.Add(rAddr, rRowI, rJ)
				b.Ldf(fAij, rAddr, a)
				b.Fmul(fAkj, fAkj, fMult)
				b.Fsub(fAij, fAij, fAkj)
				b.Stf(fAij, rAddr, a)
			})
		})
		b.Barrier(0)
	})

	// Serial: det = product of the diagonal (a U-matrix reduction).
	b.IfThread0(func() {
		b.Li(rK, 0)
		b.Li(rKB, n)
		b.CountedLoop(rK, rKB, func() {
			b.Li(rT0, rowBytes)
			b.Mul(rRowK, rK, rT0)
			b.Shli(rKN, rK, 3)
			b.Add(rAddr, rRowK, rKN)
			b.Ldf(fAij, rAddr, a)
			b.Fmul(fDet, fDet, fAij)
		})
		b.Stf(fDet, isa.RegZero, b.MustAddr("det"))
	})
	b.Barrier(1)
	b.Halt()

	p := b.MustBuild()
	// Diagonally dominant matrix: stable without pivoting.
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			v := 0.01 * float64((i*7+j*3)%13)
			if i == j {
				v = float64(n) + 1.5
			}
			p.Init.Set(a+(i*n+j)*prog.WordSize, floatBits(v))
		}
	}
	return p
}
