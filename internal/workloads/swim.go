package workloads

import (
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// Swim is the SPEC95 shallow-water analog: a 5-point stencil over three
// fields (u, v, p) ping-ponged between two array sets each time step,
// with a serial boundary/diagnostics pass by thread 0 per step.
//
// Placement knobs (Figure 6a target: ~4 threads, ILP ~3):
//   - swimMaxPar caps loop parallelism at 4 (Polaris extracts limited
//     outer-loop parallelism from the Fortran source);
//   - a loop-carried time-smoothing recurrence (the fCar chain, the
//     analog of swim's Robert-Asselin time filter) pins the per-thread
//     ILP so that 2-issue clusters nearly saturate and wider clusters
//     gain little;
//   - the serial pass sets the Amdahl fraction.
func Swim() Workload {
	return Workload{
		Name:        "swim",
		Description: "shallow-water 5-point stencil (SPEC95 swim analog)",
		ParCap:      4,
		Build:       buildSwim,
	}
}

func swimParams(size Size) (n, steps, serialReps int64) {
	if size == SizeTest {
		return 16, 2, 1
	}
	return 32, 4, 2
}

func buildSwim(threads, chips int, size Size) *prog.Program {
	n, steps, serialReps := swimParams(size)
	b := prog.NewBuilder("swim")
	declareRuntime(b, threads, chips)

	u := b.Global("u", n*n)
	v := b.Global("v", n*n)
	p := b.Global("p", n*n)
	un := b.Global("un", n*n)
	vn := b.Global("vn", n*n)
	pn := b.Global("pn", n*n)
	b.Global("checksum", 1)

	const (
		rStep isa.Reg = 1
		rI    isa.Reg = 2
		rRow  isa.Reg = 4
		rA    isa.Reg = 5
		rAB   isa.Reg = 6 // inner address bound
		rSB   isa.Reg = 7
		rRep  isa.Reg = 8
		rJ    isa.Reg = 9
		rJB   isa.Reg = 10
	)
	const (
		fC1  isa.Reg = 0
		fC2  isa.Reg = 1
		fC3  isa.Reg = 2
		fPW  isa.Reg = 3
		fPC  isa.Reg = 4
		fPE  isa.Reg = 5
		fPN  isa.Reg = 6
		fPS  isa.Reg = 7
		fU   isa.Reg = 8
		fV   isa.Reg = 9
		fT0  isa.Reg = 10
		fT1  isa.Reg = 11
		fT2  isa.Reg = 12
		fT3  isa.Reg = 13
		fCar isa.Reg = 14
		fAc  isa.Reg = 15
	)
	rowBytes := n * prog.WordSize

	// stencil emits one time step reading (su, sv, sp) and writing
	// (du, dv, dp) over this thread's rows. The fCar chain is the
	// loop-carried time filter: ~8 cycles of dependent FP work per
	// point, which caps per-thread ILP near 3.
	stencil := func(su, sv, sp, du, dv, dp int64) {
		b.Mov(rI, rLO)
		b.CountedLoop(rI, rHI, func() {
			b.Li(rT0, rowBytes)
			b.Mul(rRow, rI, rT0)
			b.Addi(rA, rRow, prog.WordSize)
			b.Addi(rAB, rRow, (n-1)*prog.WordSize)
			b.Fli(fCar, 0.1)
			b.Ldf(fPW, rA, sp-prog.WordSize)
			b.Ldf(fPC, rA, sp)
			b.SteppedLoop(rA, rAB, prog.WordSize, func() {
				b.Ldf(fPE, rA, sp+prog.WordSize)
				b.Ldf(fPN, rA, sp-rowBytes)
				b.Ldf(fPS, rA, sp+rowBytes)
				b.Ldf(fU, rA, su)
				b.Ldf(fV, rA, sv)
				// Zonal update feeding the time filter.
				b.Fsub(fT0, fPE, fPW)
				b.Fmul(fT0, fT0, fC1)
				b.Fadd(fT0, fT0, fU)
				// Time filter (loop-carried chain, ~11 cycles): caps
				// per-thread ILP near 2.5 so that four 2-issue
				// clusters beat two 4-issue ones on the stencil.
				b.Fmul(fCar, fCar, fC3)
				b.Fadd(fCar, fCar, fT0)
				b.Fmul(fCar, fCar, fC1)
				b.Fadd(fCar, fCar, fPC)
				b.Fmul(fCar, fCar, fC3)
				b.Fadd(fCar, fCar, fT0)
				b.Fmul(fCar, fCar, fC1)
				// du = filtered zonal velocity.
				b.Fmul(fT2, fCar, fC2)
				b.Fadd(fT2, fT2, fT0)
				b.Stf(fT2, rA, du)
				// dv = v + c1*(pS - pN)
				b.Fsub(fT1, fPS, fPN)
				b.Fmul(fT1, fT1, fC1)
				b.Fadd(fT1, fT1, fV)
				b.Stf(fT1, rA, dv)
				// dp = pC + c2*(zonal - meridional)
				b.Fsub(fT3, fT0, fT1)
				b.Fmul(fT3, fT3, fC2)
				b.Fadd(fT3, fT3, fPC)
				b.Stf(fT3, rA, dp)
				// Slide the p window.
				b.Fmov(fPW, fPC)
				b.Fmov(fPC, fPE)
			})
		})
	}

	// boundary emits the serial thread-0 wrap + diagnostics pass over
	// the arrays just written.
	boundary := func(du, dv, dp int64) {
		b.IfThread0(func() {
			b.Li(rRep, 0)
			b.Li(rT1, serialReps)
			b.CountedLoop(rRep, rT1, func() {
				b.Li(rJ, 0)
				b.Li(rJB, n)
				b.Fli(fAc, 0.0)
				b.CountedLoop(rJ, rJB, func() {
					b.Shli(rA, rJ, 3)
					b.Ldf(fT0, rA, du+(n-2)*rowBytes)
					b.Stf(fT0, rA, du)
					b.Ldf(fT1, rA, dv+(n-2)*rowBytes)
					b.Stf(fT1, rA, dv)
					b.Ldf(fT2, rA, dp+rowBytes)
					b.Stf(fT2, rA, dp+(n-1)*rowBytes)
					b.Fadd(fAc, fAc, fT2)
				})
				b.Stf(fAc, isa.RegZero, b.MustAddr("checksum"))
			})
		})
	}

	b.Fli(fC1, 0.12)
	b.Fli(fC2, 0.07)
	b.Fli(fC3, 0.31)
	// Loop-invariant chunk bounds, hoisted ahead of the time loop.
	emitChunk(b, n-2, 4)
	b.Addi(rLO, rLO, 1)
	b.Addi(rHI, rHI, 1)
	b.Li(rStep, 0)
	b.Li(rSB, steps/2) // each iteration does two ping-pong half steps
	b.CountedLoop(rStep, rSB, func() {
		stencil(u, v, p, un, vn, pn)
		b.Barrier(0)
		boundary(un, vn, pn)
		b.Barrier(1)
		stencil(un, vn, pn, u, v, p)
		b.Barrier(2)
		boundary(u, v, p)
		b.Barrier(3)
	})
	b.Halt()

	pr := b.MustBuild()
	initSwim(pr, n, u, v, p)
	return pr
}

// initSwim seeds the fields with a smooth deterministic pattern.
func initSwim(pr *prog.Program, n, u, v, p int64) {
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			off := (i*n + j) * prog.WordSize
			pr.Init.Set(p+off, floatBits(1.0+0.01*float64(i)-0.02*float64(j)))
			pr.Init.Set(u+off, floatBits(0.5+0.005*float64(i*j%17)))
			pr.Init.Set(v+off, floatBits(-0.25+0.004*float64((i+j)%13)))
		}
	}
}
