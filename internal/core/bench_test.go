package core

import (
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/workloads"
)

// BenchmarkNewMachine keeps the cost of building one simulator visible
// (B/op is the number to watch: the cache tag arrays used to be most of
// it): the low-end FA8 machine through New, and the high-end SMT2
// machine with a 16-job mix through NewMulti, as the oracle search
// builds it up to 64 times.
func BenchmarkNewMachine(b *testing.B) {
	b.Run("New/low-end/FA8", func(b *testing.B) {
		m := config.LowEnd(config.FA8)
		p := buildVectorSum(256, m.Threads())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(m, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NewMulti/high-end/SMT2", func(b *testing.B) {
		m := config.HighEnd(config.SMT2)
		jobs := searchMix(m.Threads() / 2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewMulti(m, jobs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSearchStatic times one oracle search at the standard budget
// on the high-end SMT2 machine: 64 candidates, each a fresh machine run
// for a 20 k-cycle prefix. Wall time per op falls with -cpu until the
// host runs out of CPUs.
func BenchmarkSearchStatic(b *testing.B) {
	m := config.HighEnd(config.SMT2)
	jobs := searchMix(m.Threads() / 2)
	mk := func() (*Simulator, error) { return NewMulti(m, jobs) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := SearchStatic(mk, SearchPrefixCycles, SearchMaxCandidates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHighEndFA8 runs two ref-size cells of the 4-chip FA8 machine
// — 32 single-thread clusters, most of which cannot make progress most
// of the time (Fig. 6) — and reports host ns per simulated instruction:
// the cluster-sleep lever without the measurement spine.
func BenchmarkHighEndFA8(b *testing.B) {
	m := config.HighEnd(config.FA8)
	for _, app := range []string{"mgrid", "tomcatv"} {
		w, err := workloads.ByName(app)
		if err != nil {
			b.Fatal(err)
		}
		p := w.Build(m.Threads(), m.Chips, workloads.SizeRef)
		b.Run(app, func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				s, err := New(m, p)
				if err != nil {
					b.Fatal(err)
				}
				r, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				insts += r.Committed
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
		})
	}
}
