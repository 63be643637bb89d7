package workloads

import (
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// Vpenta is the NASA7 pentadiagonal-inversion analog: many independent
// banded systems solved simultaneously. Parallelism across systems is
// abundant (every thread gets whole systems), but each solve is a
// forward-elimination / back-substitution recurrence whose FP divides
// serialize execution, so per-thread ILP is low — the lower-right
// corner of Figure 6a (~6.5 threads, ILP ~1.5).
func Vpenta() Workload {
	return Workload{
		Name:        "vpenta",
		Description: "simultaneous pentadiagonal solves (NASA7 vpenta analog)",
		ParCap:      0,
		Build:       buildVpenta,
	}
}

func vpentaParams(size Size) (systems, length, steps int64) {
	if size == SizeTest {
		return 16, 24, 1
	}
	return 32, 48, 2
}

func buildVpenta(threads, chips int, size Size) *prog.Program {
	systems, length, steps := vpentaParams(size)
	b := prog.NewBuilder("vpenta")
	declareRuntime(b, threads, chips)

	// Band arrays laid out system-major: a[s][k].
	a := b.Global("a", systems*length)
	c := b.Global("c", systems*length)
	f := b.Global("f", systems*length)
	b.Global("sum", 1)

	const (
		rStep isa.Reg = 1
		rS    isa.Reg = 2 // system index
		rK    isa.Reg = 3 // element index
		rBase isa.Reg = 4 // byte offset of system s
		rA    isa.Reg = 5
		rKB   isa.Reg = 6
		rSB   isa.Reg = 8
	)
	const (
		fPrev isa.Reg = 0 // recurrence carrier
		fA    isa.Reg = 1
		fC    isa.Reg = 2
		fF    isa.Reg = 3
		fT0   isa.Reg = 4
		fOne  isa.Reg = 5
	)
	sysBytes := length * prog.WordSize

	b.Fli(fOne, 1.0)
	// Systems are distributed across all threads (hoisted, loop
	// invariant).
	emitChunk(b, systems, 0)
	b.Li(rStep, 0)
	b.Li(rSB, steps)
	b.CountedLoop(rStep, rSB, func() {
		b.Mov(rS, rLO)
		b.CountedLoop(rS, rHI, func() {
			b.Li(rT0, sysBytes)
			b.Mul(rBase, rS, rT0)

			// Forward elimination: pivot = 1/(a[k] - c[k]*prev);
			// f[k] = f[k] / pivot. Strict chain with an unpipelined
			// divide every element; addresses are strength-reduced
			// (pointer increment) so almost every issued instruction
			// sits on the recurrence — per-thread ILP ~1.
			b.Fli(fPrev, 0.5)
			b.Addi(rA, rBase, prog.WordSize)
			b.Addi(rKB, rBase, sysBytes)
			b.SteppedLoop(rA, rKB, prog.WordSize, func() {
				b.Ldf(fA, rA, a)
				b.Ldf(fC, rA, c)
				b.Ldf(fF, rA, f)
				b.Fmul(fT0, fC, fPrev)
				b.Fsub(fA, fA, fT0)
				b.Fdiv(fPrev, fF, fA) // chain through fPrev
				b.Stf(fPrev, rA, f)
			})

			// Back substitution: another strict chain, walked backward
			// with a decremented pointer.
			b.Addi(rA, rBase, (length-2)*prog.WordSize)
			b.Li(rK, 0)
			b.Li(rKB, length-1)
			b.CountedLoop(rK, rKB, func() {
				b.Ldf(fF, rA, f)
				b.Ldf(fC, rA, c)
				b.Fmul(fT0, fC, fPrev)
				b.Fsub(fPrev, fF, fT0) // chain
				b.Stf(fPrev, rA, f)
				b.Addi(rA, rA, -prog.WordSize)
			})
		})
		b.Barrier(0)

		// Tiny serial reduction by thread 0 (diagnostics only): samples
		// every 4th system so the serial section stays small even when
		// the sampled lines are dirty in remote chips.
		b.IfThread0(func() {
			b.Fli(fT0, 0.0)
			b.Li(rS, 0)
			b.Li(rSB2, systems)
			b.SteppedLoop(rS, rSB2, 4, func() {
				b.Li(rT0, sysBytes)
				b.Mul(rBase, rS, rT0)
				b.Ldf(fF, rBase, f+prog.WordSize)
				b.Fadd(fT0, fT0, fF)
			})
			b.Stf(fT0, isa.RegZero, b.MustAddr("sum"))
		})
		b.Barrier(1)
	})
	b.Halt()

	pr := b.MustBuild()
	for s := int64(0); s < systems; s++ {
		for k := int64(0); k < length; k++ {
			off := (s*length + k) * prog.WordSize
			pr.Init.Set(a+off, floatBits(2.5+0.01*float64(k)))
			pr.Init.Set(c+off, floatBits(0.3+0.002*float64(s)))
			pr.Init.Set(f+off, floatBits(1.0+0.05*float64((s+k)%11)))
		}
	}
	return pr
}

// rSB2 is a second bound register for the serial tail (r9).
const rSB2 isa.Reg = 9
