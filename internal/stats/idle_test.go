package stats

import (
	"testing"
	"testing/quick"
)

func TestRecordCycleOverIssuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("issued > width did not panic")
		}
	}()
	var s Slots
	var v Votes
	s.RecordCycle(4, 5, &v)
}

// TestRecordIdleCyclesBitIdentical is the contract RecordIdleCycles
// exists for: starting from an arbitrary accumulated state, the bulk
// call must leave Counts bit-identical (==, not approximately equal) to
// n individual zero-issue RecordCycle calls, because float addition is
// not associative and the event-driven fast-forward promises exact
// replay.
func TestRecordIdleCyclesBitIdentical(t *testing.T) {
	check := func(seedUseful, seedFetch float64, v3, v5, v7 uint8, width8, n16 uint16) bool {
		width := int(width8%8) + 1
		n := int64(n16%2048) + 1
		votes := Votes{}
		votes[Sync] = float64(v3 % 4)
		votes[Data] = float64(v5 % 4)
		votes[Memory] = float64(v7 % 4)

		a := Slots{}
		a.Counts[Useful] = seedUseful
		a.Counts[Fetch] = seedFetch
		b := a

		for i := int64(0); i < n; i++ {
			a.RecordCycle(width, 0, &votes)
			a.AdvanceCycle()
		}
		b.RecordIdleCycles(width, n, &votes)
		b.AdvanceCycles(n)

		return a == b
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRecordIdleCyclesEveryCategoryMix holds the bulk call to the same
// contract for every subset of the seven hazard categories voting —
// odd and even counts, so both the paired and the lone accumulator
// loops run — from a state with every category already non-zero.
func TestRecordIdleCyclesEveryCategoryMix(t *testing.T) {
	for mask := 0; mask < 1<<(NumCategories-1); mask++ {
		var votes Votes
		var a Slots
		for c := Fetch; c < NumCategories; c++ {
			if mask&(1<<(c-1)) != 0 {
				votes[c] = float64(c)*0.7 + 0.1
			}
		}
		for c := range a.Counts {
			a.Counts[c] = 1e6/float64(c+3) + 0.3
		}
		b := a
		const width, n = 7, 333
		for i := 0; i < n; i++ {
			a.RecordCycle(width, 0, &votes)
		}
		b.RecordIdleCycles(width, n, &votes)
		if a != b {
			t.Fatalf("votes %v: bulk %v, stepped %v", votes, b.Counts, a.Counts)
		}
	}
}

func TestRecordIdleCyclesNoVotesFallsToFetch(t *testing.T) {
	var v Votes
	var s Slots
	s.RecordIdleCycles(4, 3, &v)
	if s.Counts[Fetch] != 12 {
		t.Fatalf("Fetch = %v, want 12", s.Counts[Fetch])
	}
}

func TestRecordIdleCyclesZeroOrNegativeIsNoop(t *testing.T) {
	v := Votes{}
	v[Sync] = 1
	var s Slots
	s.RecordIdleCycles(4, 0, &v)
	s.RecordIdleCycles(4, -3, &v)
	if s != (Slots{}) {
		t.Fatalf("n<=0 mutated the tally: %+v", s)
	}
}

func TestAdvanceCycles(t *testing.T) {
	var s Slots
	s.AdvanceCycle()
	s.AdvanceCycles(41)
	if s.Cycles != 42 {
		t.Fatalf("Cycles = %d, want 42", s.Cycles)
	}
}
