// Package stats implements the paper's issue-slot accounting (§4.1):
// every cycle, each cluster's issue slots are either useful (an
// instruction issued) or wasted; wasted slots are divided proportionally
// among the hazards observed that cycle — the categories of Figures
// 4/5/7/8.
package stats

import (
	"fmt"
	"strings"
)

// Category is one slot class from §4.1.
type Category uint8

// Slot categories, in the paper's legend order (bottom of the stacked
// bar first).
const (
	Useful     Category = iota
	Fetch               // no instructions for a thread in the window
	Sync                // spinning on barriers or locks
	Control             // branch mispredictions
	Data                // data dependences (non-memory producer)
	Memory              // waiting on memory access / cache resources
	Structural          // lack of functional units
	Other               // squash & rename-register stalls
	NumCategories
)

var catNames = [NumCategories]string{
	"useful", "fetch", "sync", "control", "data", "memory", "structural", "other",
}

func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// AllCategories lists every category in declaration order.
func AllCategories() []Category {
	out := make([]Category, NumCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Votes tallies hazard observations for one cluster-cycle. Index by
// Category; Useful is ignored by Distribute.
type Votes [NumCategories]float64

// Reset zeroes the tally.
func (v *Votes) Reset() { *v = Votes{} }

// Total returns the sum of all hazard votes (excluding Useful).
func (v *Votes) Total() float64 {
	t := 0.0
	for c := Fetch; c < NumCategories; c++ {
		t += v[c]
	}
	return t
}

// Slots accumulates slot counts over a run.
type Slots struct {
	Counts [NumCategories]float64
	Cycles int64
}

// RecordCycle accounts one cluster-cycle: width issue slots, of which
// issued were useful; the remainder is split proportionally among the
// hazard votes. With no votes (idle machine tail), wasted slots fall to
// Fetch, the paper's "nothing available" class. Issuing more than width
// would silently violate the categories-sum-to-width×cycles invariant
// (the §4.1 property test), so it panics instead.
func (s *Slots) RecordCycle(width, issued int, votes *Votes) {
	row := CycleRow(width, issued, votes)
	s.AddRow(&row)
}

// CycleRow computes the per-category additions of one cluster-cycle, so
// that a caller feeding two tallies (the machine's and the cluster's)
// divides once. Adding the whole row is bit-identical to adding its
// non-zero entries: the accumulators are non-negative, and adding +0.0
// to one is an exact no-op in IEEE 754.
func CycleRow(width, issued int, votes *Votes) (row [NumCategories]float64) {
	if issued > width {
		panic(fmt.Sprintf("stats: issued %d exceeds issue width %d", issued, width))
	}
	row[Useful] = float64(issued)
	wasted := float64(width - issued)
	if wasted <= 0 {
		return row
	}
	total := votes.Total()
	if total == 0 {
		row[Fetch] = wasted
		return row
	}
	for c := Fetch; c < NumCategories; c++ {
		if votes[c] != 0 { // most categories, most cycles: skip the divide
			row[c] = wasted * votes[c] / total
		}
	}
	return row
}

// AddRow folds one precomputed cycle row into the tally.
func (s *Slots) AddRow(row *[NumCategories]float64) {
	for c := range row {
		s.Counts[c] += row[c]
	}
}

// RecordIdleCycles accounts n consecutive cluster-cycles in which no
// instruction issued and the hazard votes were identical — the bulk
// path behind cluster sleep (internal/core).
//
// It deliberately performs the same repeated floating-point additions
// that n individual RecordCycle(width, 0, votes) calls would: float
// addition is not associative, and the contract is that slept cycles
// leave counts bit-identical to cycle-by-cycle stepping. Categories
// accumulate independently, so each takes its n additions in one run,
// and a category the row leaves at +0.0 takes none.
func (s *Slots) RecordIdleCycles(width int, n int64, votes *Votes) {
	for c, v := range CycleRow(width, 0, votes) {
		if v == 0 {
			continue
		}
		for i := int64(0); i < n; i++ {
			s.Counts[c] += v
		}
	}
}

// AdvanceCycle notes that one machine cycle elapsed (call once per
// cycle, not per cluster).
func (s *Slots) AdvanceCycle() { s.Cycles++ }

// AdvanceCycles notes that n machine cycles elapsed at once (the
// machine-jump path).
func (s *Slots) AdvanceCycles(n int64) { s.Cycles += n }

// TotalSlots returns the sum over all categories; it equals
// width_total × cycles by construction (asserted in tests).
func (s *Slots) TotalSlots() float64 {
	t := 0.0
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// Fraction returns category c's share of all slots, in [0,1]. It
// recomputes the total on every call; loops over all categories should
// use Fractions instead.
func (s *Slots) Fraction(c Category) float64 {
	total := s.TotalSlots()
	if total == 0 {
		return 0
	}
	return s.Counts[c] / total
}

// Fractions returns every category's share of all slots in one pass,
// summing the total once instead of once per category.
func (s *Slots) Fractions() (f [NumCategories]float64) {
	t := s.TotalSlots()
	if t == 0 {
		return f
	}
	for c := range f {
		f[c] = s.Counts[c] / t
	}
	return f
}

// String renders a one-line percentage breakdown.
func (s *Slots) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d", s.Cycles)
	fr := s.Fractions()
	for c := Category(0); c < NumCategories; c++ {
		fmt.Fprintf(&b, " %s=%.1f%%", c, 100*fr[c])
	}
	return b.String()
}
