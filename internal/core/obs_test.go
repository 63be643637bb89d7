package core

import (
	"io"
	"reflect"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/obs"
	"clustersmt/internal/prog"
	"clustersmt/internal/stats"
	"clustersmt/internal/workloads"
)

// runObsMode runs one (machine, program) pair with every observability
// hook enabled — interval metrics, an OnInterval callback, and a Chrome
// trace to io.Discard — and returns the result plus the frames seen.
func runObsMode(t *testing.T, m config.Machine, build func() *prog.Program, ff bool, interval int64) (*Result, []obs.Frame) {
	t.Helper()
	s, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableMetrics(interval, 0)
	var frames []obs.Frame
	s.OnInterval(func(f obs.Frame) { frames = append(frames, f) })
	s.TraceChromeTo(io.Discard, 0, 0)
	return runSim(t, s, true, ff), frames
}

// TestObsResultNeutral is the observability contract test: on every
// Table 2 preset, low- and high-end, on both the stepped and the
// fast-forward cycle loop, enabling interval metrics + OnInterval +
// Chrome tracing must leave the Result bit-identical
// (reflect.DeepEqual) to a plain run. A text-trace leg covers the
// other sink.
func TestObsResultNeutral(t *testing.T) {
	w, err := workloads.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range config.AllArchs {
		for _, highEnd := range []bool{false, true} {
			m := config.LowEnd(arch)
			if highEnd {
				m = config.HighEnd(arch)
			}
			t.Run(m.Name, func(t *testing.T) {
				build := func() *prog.Program {
					return w.Build(m.Threads(), m.Chips, workloads.SizeTest)
				}
				for _, ff := range []bool{false, true} {
					plain, _ := runMode(t, m, build, true, ff)
					withObs, frames := runObsMode(t, m, build, ff, 500)
					if !reflect.DeepEqual(plain, withObs) {
						t.Errorf("ff=%v: result with observability differs from plain run:\n  plain: %v\n  obs:   %v", ff, plain, withObs)
					}
					if len(frames) == 0 {
						t.Errorf("ff=%v: no frames sampled; neutrality test is vacuous", ff)
					}
				}
			})
		}
	}
}

// TestObsResultNeutralTextTrace covers the text sink: a buffered text
// trace over the full run must leave the Result bit-identical too.
func TestObsResultNeutralTextTrace(t *testing.T) {
	w, err := workloads.ByName("fmm")
	if err != nil {
		t.Fatal(err)
	}
	m := config.LowEnd(config.SMT2)
	build := func() *prog.Program {
		return w.Build(m.Threads(), m.Chips, workloads.SizeTest)
	}
	plain, _ := runMode(t, m, build, true, true)
	s, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	s.TraceTo(io.Discard, 0, 0)
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Errorf("result with text trace differs from plain run:\n  plain: %v\n  trace: %v", plain, got)
	}
}

// checkConservation asserts the frames tile the run: boundaries abut,
// every non-final frame spans exactly the interval, and the summed
// deltas reproduce the end-of-run totals exactly (deltas are
// differences of cumulative counters, so the sums telescope).
func checkConservation(t *testing.T, r *Result, frames []obs.Frame, interval int64) {
	t.Helper()
	if len(frames) == 0 {
		t.Fatal("no frames sampled")
	}
	var cycles int64
	var committed, loads, stores uint64
	var slots [stats.NumCategories]float64
	prevEnd := int64(0)
	for i, f := range frames {
		if f.Index != i {
			t.Fatalf("frame %d has index %d", i, f.Index)
		}
		if f.Start != prevEnd {
			t.Fatalf("frame %d starts at %d, previous ended at %d", i, f.Start, prevEnd)
		}
		if f.End-f.Start != f.Cycles {
			t.Fatalf("frame %d: End-Start=%d but Cycles=%d", i, f.End-f.Start, f.Cycles)
		}
		if i < len(frames)-1 && f.Cycles != interval {
			t.Fatalf("non-final frame %d spans %d cycles, want %d", i, f.Cycles, interval)
		}
		prevEnd = f.End
		cycles += f.Cycles
		committed += f.Committed
		loads += f.Mem.Loads
		stores += f.Mem.Stores
		var clusterSum [stats.NumCategories]float64
		for _, cs := range f.Clusters {
			for c := range cs.Slots {
				clusterSum[c] += cs.Slots[c]
			}
		}
		for c := range f.Slots {
			slots[c] += f.Slots[c]
		}
	}
	if cycles != r.Cycles {
		t.Errorf("frame cycles sum to %d, run took %d", cycles, r.Cycles)
	}
	if committed != r.Committed {
		t.Errorf("frame commits sum to %d, run committed %d", committed, r.Committed)
	}
	if loads != r.MemStats.Loads || stores != r.MemStats.Stores {
		t.Errorf("frame memory ops sum to %d/%d, run did %d/%d",
			loads, stores, r.MemStats.Loads, r.MemStats.Stores)
	}
	for c := range slots {
		if slots[c] != r.Slots.Counts[c] {
			t.Errorf("slot category %v: frames sum to %v, run counted %v",
				stats.Category(c), slots[c], r.Slots.Counts[c])
		}
	}
}

// TestObsFrameConservation is the satellite property test: summing the
// per-frame deltas must reproduce the final totals exactly, on both
// cycle loops. The exactness argument: each delta is a float difference
// of successive cumulative counters and the test re-sums them in frame
// order, so for the workload sizes here (counter growth per frame well
// within one binade after the first frame) every subtraction and
// re-addition is exact; determinism makes the check stable.
func TestObsFrameConservation(t *testing.T) {
	w, err := workloads.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	m := config.LowEnd(config.SMT2)
	build := func() *prog.Program {
		return w.Build(m.Threads(), m.Chips, workloads.SizeTest)
	}
	const interval = 250
	for _, ff := range []bool{false, true} {
		r, frames := runObsMode(t, m, build, ff, interval)
		checkConservation(t, r, frames, interval)
	}
}

// TestObsFrameConservationFastForwardDominated pins the segmented
// replay: a pointer chase of dependent missing loads spends most of
// its run inside quiescence skips, each one memory-latency long and
// crossing frame boundaries, and the frames must still land exactly on
// the boundaries and conserve every counter.
func TestObsFrameConservationFastForwardDominated(t *testing.T) {
	build := func() *prog.Program {
		b := prog.NewBuilder("obschase")
		n := int64(8192)
		data := b.Global("chain", n)
		b.Li(1, 0)
		b.Li(2, 2000)
		b.Li(3, data)
		b.CountedLoop(1, 2, func() {
			b.Ld(3, 3, 0)
		})
		b.Halt()
		p := b.MustBuild()
		// Strided cyclic permutation: each hop lands on a new line.
		for i := int64(0); i < n; i++ {
			next := (i + 97) % n
			p.Init.Set(data+i*prog.WordSize, uint64(data+next*prog.WordSize))
		}
		return p
	}
	m := config.LowEnd(config.FA1)
	const interval = 25

	s, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	s.EnableMetrics(interval, 0)
	var frames []obs.Frame
	s.OnInterval(func(f obs.Frame) { frames = append(frames, f) })
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.FastForwarded() == 0 {
		t.Fatal("fast-forward never engaged; segmentation test is vacuous")
	}
	if s.FastForwarded() < 2*interval {
		t.Fatalf("only %d cycles fast-forwarded; skips never cross a frame boundary", s.FastForwarded())
	}
	checkConservation(t, r, frames, interval)
}

// TestOnIntervalChains checks that OnInterval alone enables sampling at
// the default interval, and that its callback sees every frame the ring
// retains.
func TestOnIntervalChains(t *testing.T) {
	w, err := workloads.ByName("fmm")
	if err != nil {
		t.Fatal(err)
	}
	m := config.LowEnd(config.SMT1)
	s, err := New(m, w.Build(m.Threads(), m.Chips, workloads.SizeTest))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	s.OnInterval(func(obs.Frame) { seen++ })
	if s.Metrics() == nil || s.obs.interval != DefaultMetricsInterval {
		t.Fatal("OnInterval did not enable metrics at the default interval")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("callback never fired")
	}
	if got := s.Metrics().Len(); got != seen {
		t.Errorf("ring retains %d frames, callback saw %d", got, seen)
	}
}

// TestMetricsRingDrops checks that a tiny ring drops oldest frames but
// keeps sampling (the OnInterval stream is unaffected).
func TestMetricsRingDrops(t *testing.T) {
	w, err := workloads.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	m := config.LowEnd(config.SMT2)
	s, err := New(m, w.Build(m.Threads(), m.Chips, workloads.SizeTest))
	if err != nil {
		t.Fatal(err)
	}
	ring := s.EnableMetrics(200, 4)
	var seen int
	s.OnInterval(func(obs.Frame) { seen++ })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if seen <= 4 {
		t.Skipf("run too short to overflow the ring (%d frames)", seen)
	}
	if ring.Len() != 4 {
		t.Errorf("ring holds %d frames, want 4", ring.Len())
	}
	if ring.Dropped() != seen-4 {
		t.Errorf("ring dropped %d frames, want %d", ring.Dropped(), seen-4)
	}
	frames := ring.Frames()
	if frames[len(frames)-1].Index != seen-1 {
		t.Errorf("newest retained frame is %d, want %d", frames[len(frames)-1].Index, seen-1)
	}
}
