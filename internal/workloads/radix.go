package workloads

import (
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// Radix is a bonus workload beyond the paper's six: the SPLASH-2 radix
// sort, a parallel counting sort processed one digit per phase. Unlike
// the six FP kernels it is integer-only — shifts, masks, histogram
// updates and scatters — and it alternates highly parallel histogram/
// scatter phases with a serial prefix-sum phase, all barrier-
// delimited. Keys are 8-bit, sorted in two 4-bit passes.
func Radix() Workload {
	return Workload{
		Name:        "radix",
		Description: "parallel radix sort, 4-bit digits (SPLASH-2 radix analog; extension)",
		ParCap:      0,
		Build:       buildRadix,
	}
}

const (
	radixDigits = 16 // 4-bit digit
	radixPasses = 2  // 8-bit keys
)

func radixParams(size Size) (n int64) {
	if size == SizeTest {
		return 512
	}
	return 2048
}

func buildRadix(threads, chips int, size Size) *prog.Program {
	n := radixParams(size)
	maxThreads := int64(64)

	b := prog.NewBuilder("radix")
	declareRuntime(b, threads, chips)
	src := b.Global("keys", n)
	dst := b.Global("dst", n)
	// hist[tid][digit] and rank[tid][digit].
	hist := b.Global("hist", maxThreads*radixDigits)
	rank := b.Global("rank", maxThreads*radixDigits)
	b.Global("checks", 1)

	const (
		rI    isa.Reg = 1 // element index
		rKey  isa.Reg = 2
		rDig  isa.Reg = 3
		rAddr isa.Reg = 4
		rCnt  isa.Reg = 5
		rRow  isa.Reg = 6 // this thread's hist/rank row byte offset
		rT    isa.Reg = 7 // tid loop (serial phase)
		rD    isa.Reg = 8 // digit loop (serial phase)
		rOff  isa.Reg = 9 // running offset (serial phase)
		rTB   isa.Reg = 10
		rDB   isa.Reg = 11
		rSh   isa.Reg = 12 // current pass shift amount
	)

	// Hoisted: element chunk and this thread's histogram row base.
	emitChunk(b, n, 0)
	b.Li(rT0, radixDigits*prog.WordSize)
	b.Mul(rRow, rTID, rT0)

	var barrier int64
	pass := func(shift int64, from, to int64) {
		b.Li(rSh, shift)
		// --- zero this thread's histogram row ---
		b.Li(rD, 0)
		b.Li(rDB, radixDigits)
		b.CountedLoop(rD, rDB, func() {
			b.Shli(rAddr, rD, 3)
			b.Add(rAddr, rAddr, rRow)
			b.St(0, rAddr, hist)
		})
		// --- local histogram over the thread's chunk ---
		b.Mov(rI, rLO)
		b.CountedLoop(rI, rHI, func() {
			b.Shli(rAddr, rI, 3)
			b.Ld(rKey, rAddr, from)
			b.Shr(rDig, rKey, rSh)
			b.Andi(rDig, rDig, radixDigits-1)
			b.Shli(rAddr, rDig, 3)
			b.Add(rAddr, rAddr, rRow)
			b.Ld(rCnt, rAddr, hist)
			b.Addi(rCnt, rCnt, 1)
			b.St(rCnt, rAddr, hist)
		})
		b.Barrier(barrier)
		barrier++
		// --- serial prefix: rank[t][d] = running offset in digit-major,
		// tid-minor order (stable sort) ---
		b.IfThread0(func() {
			b.Li(rOff, 0)
			b.Li(rD, 0)
			b.Li(rDB, radixDigits)
			b.CountedLoop(rD, rDB, func() {
				b.Li(rT, 0)
				b.Mov(rTB, rNTH)
				b.CountedLoop(rT, rTB, func() {
					// addr = (t*digits + d) * 8
					b.Li(rT0, radixDigits)
					b.Mul(rAddr, rT, rT0)
					b.Add(rAddr, rAddr, rD)
					b.Shli(rAddr, rAddr, 3)
					b.Ld(rCnt, rAddr, hist)
					b.St(rOff, rAddr, rank)
					b.Add(rOff, rOff, rCnt)
				})
			})
		})
		b.Barrier(barrier)
		barrier++
		// --- scatter: stable within the thread's chunk ---
		b.Mov(rI, rLO)
		b.CountedLoop(rI, rHI, func() {
			b.Shli(rAddr, rI, 3)
			b.Ld(rKey, rAddr, from)
			b.Shr(rDig, rKey, rSh)
			b.Andi(rDig, rDig, radixDigits-1)
			b.Shli(rAddr, rDig, 3)
			b.Add(rAddr, rAddr, rRow)
			b.Ld(rCnt, rAddr, rank) // destination slot
			b.Addi(rT0, rCnt, 1)
			b.St(rT0, rAddr, rank)
			b.Shli(rCnt, rCnt, 3)
			b.Shli(rT0, rI, 3)
			b.Ld(rT1, rT0, from)
			b.St(rT1, rCnt, to)
		})
		b.Barrier(barrier)
		barrier++
	}

	pass(0, src, dst)
	pass(4, dst, src) // result lands back in keys

	// Serial check: count adjacent inversions (must end up zero).
	b.IfThread0(func() {
		b.Li(rI, 1)
		b.Li(rTB, n)
		b.Li(rOff, 0)
		b.CountedLoop(rI, rTB, func() {
			b.Shli(rAddr, rI, 3)
			b.Ld(rKey, rAddr, src)
			b.Ld(rCnt, rAddr, src-prog.WordSize)
			b.Slt(rT0, rKey, rCnt)
			b.Add(rOff, rOff, rT0)
		})
		b.St(rOff, isa.RegZero, b.MustAddr("checks"))
	})
	b.Halt()

	p := b.MustBuild()
	// Deterministic pseudo-random 8-bit keys.
	state := uint64(0x12345678)
	for i := int64(0); i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		p.Init.Set(src+i*prog.WordSize, (state>>33)&0xFF)
	}
	return p
}
