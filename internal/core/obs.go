package core

import (
	"clustersmt/internal/coherence"
	"clustersmt/internal/obs"
	"clustersmt/internal/stats"
)

// This file implements interval-metrics sampling: every Interval cycles
// the simulator snapshots its cumulative counters, turns them into one
// obs.Frame of deltas, and pushes the frame into a ring (and into the
// OnInterval callback). Two properties are contractual, enforced by
// TestObsResultNeutral and TestObsFrameConservation:
//
//   - Read-only / result-neutral: sampling never mutates simulation
//     state, so Result is bit-identical with sampling on or off. The
//     memory gauges use non-retiring probes (MSHRFile.Occupancy,
//     Directory.Lines) for exactly this reason. OnInterval callbacks
//     receive the frame by value and must not reach back into the
//     simulator's mutable state.
//
//   - Boundary exactness: frames land exactly on multiples of the
//     interval even when the whole machine sleeps across several
//     boundaries: a machine jump (fastforward.go) stops at each due
//     boundary, and sample wakes every sleeper first, so their bulk
//     accounting is charged up to the boundary (the same per-cycle
//     accounting in the same order, merely partitioned, so results
//     stay bit-identical). Summing the frames' deltas therefore
//     reproduces the end-of-run totals.
//
// With sampling disabled the entire cost is one nil check per cycle in
// Run plus one per machine jump (benchmarked by BenchmarkObsOverhead).

// DefaultMetricsInterval is the sampling interval OnInterval uses when
// EnableMetrics was not called first.
const DefaultMetricsInterval = 10_000

// sampler holds the metrics configuration plus the cumulative-counter
// snapshot taken at the last frame boundary.
type sampler struct {
	interval int64
	nextAt   int64 // next frame boundary (cycle)
	index    int   // next frame number
	ring     *obs.Ring
	onFrame  func(obs.Frame)

	prevCycle        int64
	prevCommitted    uint64
	prevRunningAccum float64
	prevSlots        [stats.NumCategories]float64
	prevCluster      [][stats.NumCategories]float64
	prevMem          coherence.MemSnapshot
}

// EnableMetrics turns on interval sampling: one obs.Frame every
// interval cycles (DefaultMetricsInterval when interval <= 0), retained
// in a ring of ringCap frames (obs.DefaultRingCap when ringCap <= 0).
// It returns the ring, which holds the most recent frames after Run.
// Must be called before Run. Sampling is read-only: the Result is
// bit-identical with metrics enabled or disabled.
func (s *Simulator) EnableMetrics(interval int64, ringCap int) *obs.Ring {
	if interval <= 0 {
		interval = DefaultMetricsInterval
	}
	if s.obs == nil {
		s.obs = &sampler{
			ring:        obs.NewRing(ringCap),
			prevCluster: make([][stats.NumCategories]float64, len(s.clusters)),
		}
	}
	s.obs.interval = interval
	s.obs.nextAt = interval
	return s.obs.ring
}

// OnInterval sets fn to receive every completed frame, in order, as
// the run progresses — the harness heartbeat hook, also usable by tests
// to assert mid-run invariants. A later call replaces fn. If
// EnableMetrics was not called, it is enabled at
// DefaultMetricsInterval. Must be called before Run. fn runs on the
// simulation goroutine and must not mutate the simulator.
func (s *Simulator) OnInterval(fn func(obs.Frame)) {
	if s.obs == nil {
		s.EnableMetrics(DefaultMetricsInterval, 0)
	}
	s.obs.onFrame = fn
}

// Metrics returns the frame ring, or nil when metrics are disabled.
func (s *Simulator) Metrics() *obs.Ring {
	if s.obs == nil {
		return nil
	}
	return s.obs.ring
}

// sample emits the frame covering [o.prevCycle, s.cycle). Called by Run
// when a step or a machine jump reaches a boundary, and once more at
// run end for the partial tail. Deltas are differences of cumulative
// counters, so consecutive frames tile the run with no gaps or overlaps.
func (s *Simulator) sample() {
	s.wakeAll() // the per-cluster tallies are read below
	o := s.obs
	now := s.cycle
	f := obs.Frame{
		Index:     o.index,
		Start:     o.prevCycle,
		End:       now,
		Cycles:    now - o.prevCycle,
		Committed: s.committed - o.prevCommitted,
		Running:   s.running,
	}
	if f.Cycles > 0 {
		f.IPC = float64(f.Committed) / float64(f.Cycles)
		f.AvgRunning = (s.runningAccum - o.prevRunningAccum) / float64(f.Cycles)
	}
	for c := range f.Slots {
		f.Slots[c] = s.slots.Counts[c] - o.prevSlots[c]
	}
	f.Clusters = make([]obs.ClusterSlots, len(s.clusters))
	for i, cl := range s.clusters {
		cs := obs.ClusterSlots{Chip: cl.chip, Cluster: cl.idx}
		for c := range cs.Slots {
			cs.Slots[c] = cl.slots.Counts[c] - o.prevCluster[i][c]
		}
		f.Clusters[i] = cs
		o.prevCluster[i] = cl.slots.Counts
	}
	snap := s.msys.Snapshot(now)
	f.Mem = snap.Sub(o.prevMem)

	o.prevCycle = now
	o.prevCommitted = s.committed
	o.prevRunningAccum = s.runningAccum
	o.prevSlots = s.slots.Counts
	o.prevMem = snap
	o.index++
	o.nextAt = now + o.interval

	o.ring.Push(f)
	if o.onFrame != nil {
		o.onFrame(f)
	}
}
