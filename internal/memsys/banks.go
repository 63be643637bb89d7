package memsys

import "math/bits"

// BankSet models contention on a banked structure: each bank has a
// next-free cycle, and every access occupies its bank for a fixed
// number of cycles (Table 3: read/write occupancy 1; fills occupy for
// the 8-cycle fill time). The line size is fixed at construction so the
// line→bank map is a shift and a modulo (Table 3 has seven banks).
type BankSet struct {
	free      []int64
	occupancy int64
	lineShift uint // log2(lineBytes)
	nbanks    int64

	// Conflicts counts accesses that had to wait for a busy bank.
	Conflicts uint64
	// BusyCycles accumulates total wait cycles (contention integral).
	BusyCycles uint64
}

// NewBankSet returns n banks with the given per-access occupancy,
// interleaved at lineBytes granularity. The geometry is one that
// config.MemConfig.Validate accepted: n and occupancy positive,
// lineBytes a power of two.
func NewBankSet(n, occupancy, lineBytes int) *BankSet {
	return &BankSet{
		free:      make([]int64, n),
		occupancy: int64(occupancy),
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		nbanks:    int64(n),
	}
}

// bankFor maps a line address onto a bank (line interleaving).
func (b *BankSet) bankFor(line int64) int {
	return int((line >> b.lineShift) % b.nbanks)
}

// Acquire reserves the bank serving line starting no earlier than now
// and returns the cycle at which service actually begins.
func (b *BankSet) Acquire(now, line int64) int64 {
	i := b.bankFor(line)
	start := now
	if b.free[i] > start {
		b.Conflicts++
		b.BusyCycles += uint64(b.free[i] - start)
		start = b.free[i]
	}
	b.free[i] = start + b.occupancy
	return start
}

// Extend adds extra occupancy to the bank serving line, on top of its
// current reservation — used to model the fill time of a miss. (The
// bank's state is a scalar next-free cycle, so the fill occupancy is
// charged adjacent to the triggering access rather than at the exact
// fill-return cycle; total bank occupancy per miss is preserved, which
// is what drives the contention the paper models.)
func (b *BankSet) Extend(line int64, extra int) {
	b.free[b.bankFor(line)] += int64(extra)
}
