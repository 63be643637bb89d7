package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCategoryStrings(t *testing.T) {
	want := []string{"useful", "fetch", "sync", "control", "data", "memory", "structural", "other"}
	for i, w := range want {
		if Category(i).String() != w {
			t.Errorf("category %d = %q, want %q", i, Category(i), w)
		}
	}
	if len(AllCategories()) != int(NumCategories) {
		t.Fatal("AllCategories size mismatch")
	}
}

func TestRecordCycleFullyUseful(t *testing.T) {
	var s Slots
	var v Votes
	s.RecordCycle(4, 4, &v)
	if s.Counts[Useful] != 4 || s.TotalSlots() != 4 {
		t.Fatalf("counts = %+v", s.Counts)
	}
}

func TestRecordCycleNoVotesFallsToFetch(t *testing.T) {
	var s Slots
	var v Votes
	s.RecordCycle(4, 1, &v)
	if s.Counts[Fetch] != 3 {
		t.Fatalf("fetch = %v, want 3", s.Counts[Fetch])
	}
}

func TestRecordCycleProportionalSplit(t *testing.T) {
	var s Slots
	var v Votes
	v[Data] = 3
	v[Memory] = 1
	s.RecordCycle(8, 4, &v) // 4 wasted: 3 data, 1 memory
	if math.Abs(s.Counts[Data]-3) > 1e-9 || math.Abs(s.Counts[Memory]-1) > 1e-9 {
		t.Fatalf("split = data %v memory %v", s.Counts[Data], s.Counts[Memory])
	}
}

// Property: total slots always equals width*cycles regardless of votes.
func TestSlotConservation(t *testing.T) {
	f := func(cycles []uint8, votesRaw []uint8) bool {
		var s Slots
		width := 8
		for i, c := range cycles {
			issued := int(c) % (width + 1)
			var v Votes
			for j := 0; j < int(NumCategories); j++ {
				if i+j < len(votesRaw) {
					v[j] = float64(votesRaw[i+j] % 5)
				}
			}
			v[Useful] = 0
			s.RecordCycle(width, issued, &v)
			s.AdvanceCycle()
		}
		want := float64(width) * float64(len(cycles))
		return math.Abs(s.TotalSlots()-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionAndString(t *testing.T) {
	var s Slots
	var v Votes
	s.RecordCycle(4, 2, &v)
	if f := s.Fraction(Useful); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("useful fraction = %v", f)
	}
	if !strings.Contains(s.String(), "useful=50.0%") {
		t.Fatalf("string = %q", s.String())
	}
	var empty Slots
	if empty.Fraction(Useful) != 0 {
		t.Fatal("empty fraction should be 0")
	}
}

func TestVotesTotalExcludesUseful(t *testing.T) {
	var v Votes
	v[Useful] = 100
	v[Data] = 2
	if v.Total() != 2 {
		t.Fatalf("total = %v", v.Total())
	}
	v.Reset()
	if v.Total() != 0 {
		t.Fatal("reset failed")
	}
}

// TestFractionsMatchFraction: the single-pass Fractions must agree
// exactly with per-call Fraction.
func TestFractionsMatchFraction(t *testing.T) {
	var s Slots
	v := Votes{0, 3, 1, 0, 2, 5, 0, 1}
	s.RecordCycle(8, 3, &v)
	s.RecordCycle(8, 0, &v)
	s.RecordCycle(8, 8, &v)
	fr := s.Fractions()
	for c := Category(0); c < NumCategories; c++ {
		if fr[c] != s.Fraction(c) {
			t.Errorf("%v: Fractions=%v Fraction=%v", c, fr[c], s.Fraction(c))
		}
	}
	var empty Slots
	if empty.Fractions() != [NumCategories]float64{} {
		t.Error("empty Fractions should be all zero")
	}
}
