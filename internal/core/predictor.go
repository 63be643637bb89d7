// Package core implements the paper's primary contribution: the
// clustered simultaneous-multithreaded processor (§3). A Simulator
// models one machine (1 or 4 chips); each chip is a set of clusters;
// each cluster is a dynamic superscalar SMT core with its own fetch
// unit, rename pools, unified instruction window / reorder buffer,
// functional units and per-thread in-order commit. No resources are
// shared across clusters (§3.3).
package core

// BranchPredictor is the §3.1 predictor: a direct-mapped table of 2-bit
// saturating counters indexed by the low-order PC bits, shared by all
// threads of a cluster (multiple predictions may be outstanding; we
// update non-speculatively at fetch since the outcome is known then).
type BranchPredictor struct {
	counters []uint8

	Lookups uint64
	Mispred uint64
}

// NewBranchPredictor returns a predictor with the given entry count
// (power of two), initialized weakly not-taken.
func NewBranchPredictor(entries int) *BranchPredictor {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("core: predictor entries must be a positive power of two")
	}
	c := make([]uint8, entries)
	for i := range c {
		c[i] = 1 // weakly not-taken
	}
	return &BranchPredictor{counters: c}
}

// PredictAndUpdate predicts the branch at pc, trains on the actual
// outcome, and reports whether the prediction was correct.
func (p *BranchPredictor) PredictAndUpdate(pc int64, taken bool) (predictedTaken, correct bool) {
	p.Lookups++
	idx := int(uint64(pc) & uint64(len(p.counters)-1))
	predictedTaken = p.counters[idx] >= 2
	if taken && p.counters[idx] < 3 {
		p.counters[idx]++
	} else if !taken && p.counters[idx] > 0 {
		p.counters[idx]--
	}
	correct = predictedTaken == taken
	if !correct {
		p.Mispred++
	}
	return predictedTaken, correct
}

// BTB is the branch target buffer used for register-indirect jumps
// (direct targets are encoded in the instruction). Direct-mapped,
// storing the last seen target per slot. Its tables are allocated on the
// first lookup: most programs never jump indirectly, and an absent
// table reads as all-invalid.
type BTB struct {
	entries int
	targets []int64 // nil until the first lookup, like valid
	valid   []bool

	Lookups uint64
	Mispred uint64
}

// NewBTB returns a BTB with the given entry count (power of two).
func NewBTB(entries int) *BTB {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("core: BTB entries must be a positive power of two")
	}
	return &BTB{entries: entries}
}

// alloc gives the BTB its tables, all-invalid.
func (b *BTB) alloc() {
	b.targets, b.valid = make([]int64, b.entries), make([]bool, b.entries)
}

// PredictAndUpdate predicts the target of the indirect jump at pc,
// trains on the actual target, and reports whether the prediction was
// correct.
func (b *BTB) PredictAndUpdate(pc, actual int64) (predicted int64, correct bool) {
	if b.targets == nil {
		b.alloc()
	}
	b.Lookups++
	idx := int(uint64(pc) & uint64(b.entries-1))
	predicted = b.targets[idx]
	correct = b.valid[idx] && predicted == actual
	b.targets[idx] = actual
	b.valid[idx] = true
	if !correct {
		b.Mispred++
	}
	return predicted, correct
}
