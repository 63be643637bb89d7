package core

import (
	"errors"
	"fmt"

	"clustersmt/internal/coherence"
	"clustersmt/internal/config"
	"clustersmt/internal/interp"
	"clustersmt/internal/parallel"
	"clustersmt/internal/prog"
	"clustersmt/internal/stats"
)

// DefaultMaxCycles bounds runaway simulations (livelocked kernels).
const DefaultMaxCycles = 2_000_000_000

// ErrInterrupted is returned (wrapped) by Run when the Interrupt
// channel fires before the simulation completes.
var ErrInterrupted = errors.New("run interrupted")

// interruptPeriod is how many simulated cycles pass between polls of
// the Interrupt channel. Polling is keyed to the cycle count, not loop
// iterations, so a fast-forward jump spanning many periods triggers a
// poll immediately after landing: cancellation latency is bounded by
// max(interruptPeriod, one jump) regardless of how far each iteration
// advances, while the poll stays off the hot path.
const interruptPeriod = 1024

// Simulator executes one program on one machine, cycle by cycle, on the
// calling goroutine. It is strictly deterministic.
type Simulator struct {
	Machine config.Machine
	Program *prog.Program

	mem      *interp.Memory
	mems     []*interp.Memory
	msys     *coherence.System
	syncs    []*parallel.Sync
	chips    [][]*cluster // [chip][cluster]
	clusters []*cluster   // flattened, iteration order
	threads  []*threadCtx

	cycle     int64
	slots     stats.Slots
	committed uint64

	forwardedLoads uint64
	runningAccum   float64 // Σ over cycles of running-thread count

	// running counts threads neither finished nor blocked on
	// synchronization, maintained incrementally at the block/unblock and
	// halt-drain transitions (it replaces the per-cycle all-threads scan).
	running int
	// finished counts drained threads; done() is finished == len(threads).
	finished int

	// Deprecated: Parallel is ignored; the per-chip loop was removed
	// (ROADMAP item 2). The field remains only because
	// benchmark/w_figs.go assigns it; ROADMAP item 3(a) deletes both.
	Parallel bool

	// Cluster sleep (fastforward.go): each cluster's sleep state at its
	// gid, the number asleep, the clusters the last cycle left without
	// progress (the next probes), and the count of Unlocks and barrier
	// trips — the only events by which one cluster ends another's
	// quiescence. ffCycles counts the cycles machine jumps covered.
	sleep      []clusterSleep
	nAsleep    int
	idle       []int32
	releases   uint64
	ffCycles   int64
	sleepStats SleepStats

	// alloc is the dynamic allocation-policy state (nil for static
	// placement — the default — and for the oracle's fixed assignments);
	// migrating lists threads marked for migration and still draining
	// their in-flight window. See alloc.go.
	alloc     *allocState
	migrating []*threadCtx

	// MaxCycles aborts the run when exceeded (safety net).
	MaxCycles int64

	// resumable marks a simulator that may legally (re-)enter the run
	// loop at a non-zero cycle: one paused by RunTo, or one produced by
	// Restore/Fork. A completed run clears it, restoring the original
	// "already run" double-Run guard.
	resumable bool

	// Interrupt, when non-nil, is polled periodically during Run (every
	// interruptPeriod simulated cycles); once it is closed or receives,
	// Run returns ErrInterrupted promptly. It is how callers plumb
	// context cancellation into a run without putting a context on the
	// per-cycle hot path. Must be set before Run.
	Interrupt <-chan struct{}

	tr  *tracer
	obs *sampler
}

// FastForwarded returns the number of cycles covered by machine jumps,
// every cluster asleep at once (diagnostics and tests; see SleepStats).
func (s *Simulator) FastForwarded() int64 { return s.ffCycles }

// SetICountFetch switches every cluster to the ICOUNT fetch policy
// (fewest in-flight instructions first). Must be called before Run.
func (s *Simulator) SetICountFetch(on bool) {
	for _, cl := range s.clusters {
		cl.icount = on
	}
}

// New builds a simulator for machine m running program p with exactly
// m.Threads() application threads (§4: "we generate as many threads as
// are required by the processor").
func New(m config.Machine, p *prog.Program) (*Simulator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s, err := newShell(m, p, interp.NewMemory(), coherence.NewSystem(m.Chips, m.Mem))
	if err != nil {
		return nil, err
	}
	s.mem.LoadImage(p)
	return s, nil
}

// newShell builds the complete machine structure — clusters, threads,
// sync controller — around the given memory front end and timing memory
// system, WITHOUT loading the program image. New loads the image into a
// fresh memory; the fork and restore paths (snapshot.go) instead attach
// a copy-on-write or decoded memory that already carries the warmed
// store state, which LoadImage would clobber.
func newShell(m config.Machine, p *prog.Program, mem *interp.Memory, msys *coherence.System) (*Simulator, error) {
	s := &Simulator{
		Machine:   m,
		Program:   p,
		mem:       mem,
		msys:      msys,
		MaxCycles: DefaultMaxCycles,
	}
	s.mems = []*interp.Memory{s.mem}
	sync := parallel.NewSync(m.Threads())
	s.syncs = []*parallel.Sync{sync}

	s.chips = make([][]*cluster, m.Chips)
	for chip := 0; chip < m.Chips; chip++ {
		s.chips[chip] = make([]*cluster, m.Arch.Clusters)
		for ci := 0; ci < m.Arch.Clusters; ci++ {
			cl := newCluster(chip, ci, m.Arch)
			s.chips[chip][ci] = cl
			s.clusters = append(s.clusters, cl)
		}
	}
	s.numberClusters()

	// Initial placement: the allocation policy decides (alloc.go); with
	// the default static policy, assign is nil and the seed loop below
	// runs byte-for-byte unchanged. Threads are placed round-robin
	// across chips and then round-robin across the clusters within a
	// chip (standard SPMD placement), so consecutive thread ids land on
	// different chips/clusters and partially-parallel applications
	// spread their active threads over the whole machine.
	assign, err := s.initAlloc(m.Threads())
	if err != nil {
		return nil, err
	}
	for tid := 0; tid < m.Threads(); tid++ {
		var cl *cluster
		if assign != nil {
			cl = s.clusters[assign[tid]]
		} else {
			chip := tid % m.Chips
			local := tid / m.Chips
			ci := local % m.Arch.Clusters
			cl = s.chips[chip][ci]
		}
		t := &threadCtx{
			id:         tid,
			chip:       cl.chip,
			cluster:    cl,
			fn:         interp.NewThread(tid, p, s.mem),
			sync:       sync,
			frontEvent: noEvent,
			fifo:       newRing(m.Arch.WindowEntries),
		}
		cl.threads = append(cl.threads, t)
		s.threads = append(s.threads, t)
	}
	s.running = len(s.threads)
	return s, nil
}

// numberClusters assigns each cluster its global (chip-major) index —
// the cycle loop's iteration order — and preallocates the sleep state
// indexed by it.
func (s *Simulator) numberClusters() {
	s.sleep = make([]clusterSleep, len(s.clusters))
	s.idle = make([]int32, 0, len(s.clusters))
	for i, cl := range s.clusters {
		cl.gid = i
		s.sleep[i].spinners = make([]*threadCtx, 0, cl.cfg.ThreadsPerCluster)
	}
}

// Mem exposes the functional memory (post-run inspection in tests).
func (s *Simulator) Mem() *interp.Memory { return s.mem }

// MemSystem exposes the timing memory system (post-run inspection).
func (s *Simulator) MemSystem() *coherence.System { return s.msys }

// done reports whether every thread has halted and drained. finished
// is maintained at the commit halt-drain transition, so this is O(1).
func (s *Simulator) done() bool { return s.finished == len(s.threads) }

// step advances the machine one cycle: commit, then issue (collecting
// hazard votes), then fetch, in classic reverse-pipeline order so a
// result produced this cycle is consumed no earlier than the next. It
// leaves in s.idle the clusters that made no progress (committed,
// issued, resumed or fetched nothing) — sleepIdle's candidates.
//
// A sleeper is skipped. It wakes in the commit phase of the cycle its
// next event is due, so that cycle's commit runs normally; one with a
// thread parked on a lock or barrier also wakes at its place in the
// issue/fetch phase once a release has happened since it last looked —
// this cycle if the releasing cluster comes earlier in the order, the
// next if later: exactly when an awake cluster's unblock poll would
// first have seen it. Otherwise its slot row joins the machine-wide
// tally at its position in the order (float addition is order-bound).
func (s *Simulator) step() {
	now := s.cycle
	s.idle = s.idle[:0]
	for i, cl := range s.clusters {
		sl := &s.sleep[i]
		if sl.asleep {
			if now < sl.wakeAt {
				continue
			}
			s.wake(cl, now, false)
		}
		sl.busy = cl.commit(s, now)
	}
	if len(s.migrating) > 0 {
		s.completeMigrations(now)
	}
	var votes stats.Votes
	for i, cl := range s.clusters {
		sl := &s.sleep[i]
		if sl.asleep {
			if !sl.syncWait || sl.epoch == s.releases {
				sl.addTo(&s.slots)
				continue
			}
			s.wake(cl, now, true)
		}
		votes.Reset()
		issued := cl.issue(s, now, &votes)
		resumed := cl.unblock(s, now)
		fetched := cl.fetch(s, now, &votes)
		cl.threadVotes(&votes)
		row := stats.CycleRow(cl.cfg.IssueWidth, issued, &votes)
		s.slots.AddRow(&row)
		cl.slots.AddRow(&row)
		if sl.busy || issued > 0 || resumed || fetched {
			sl.failStreak, sl.probeAt = 0, 0
		} else {
			s.idle = append(s.idle, int32(i))
		}
	}
	s.slots.AdvanceCycle()
	s.runningAccum += float64(s.running)
	s.cycle++
}

// Run simulates to completion and returns the result. It may be called
// on a fresh simulator, on one paused by RunTo, or on one produced by
// Restore/Fork; a completed simulator cannot be run again.
func (s *Simulator) Run() (*Result, error) {
	return s.run(-1)
}

// RunTo advances the simulation until the cycle counter reaches at
// least target (a fast-forward jump may overshoot it) or the program
// completes, then pauses between cycles. A paused simulator can be
// snapshotted, forked, or continued with Run/RunTo. Done reports which
// way it ended.
func (s *Simulator) RunTo(target int64) error {
	_, err := s.run(target)
	return err
}

// Done reports whether every thread has halted and drained (the run
// completed, as opposed to pausing at a RunTo target).
func (s *Simulator) Done() bool { return s.done() }

// Cycle returns the current cycle counter.
func (s *Simulator) Cycle() int64 { return s.cycle }

// run is the shared run loop: target < 0 simulates to completion and
// returns the result; otherwise it pauses once s.cycle >= target and
// returns (nil, nil) with the simulator left resumable.
func (s *Simulator) run(target int64) (*Result, error) {
	if s.cycle != 0 && !s.resumable {
		return nil, fmt.Errorf("core: simulator already run")
	}
	s.resumable = false
	if s.tr != nil {
		// The trace writer is buffered; flush whatever was traced even
		// when the run aborts (MaxCycles), so partial traces are usable.
		defer s.tr.flush()
	}
	// Interrupt polling is keyed to the cycle count so that a
	// fast-forward jump crossing the next poll boundary is followed by
	// a poll on the very next iteration — one jump, not interruptPeriod
	// jumps, bounds the cancellation latency.
	nextInterruptPoll := s.cycle + interruptPeriod
	for !s.done() {
		if target >= 0 && s.cycle >= target {
			// Pause between cycles, with every cluster awake: Snapshot, Fork
			// and a resumed loop meet no sleeper, and bit-identity makes
			// the few cycles re-stepped on resume indistinguishable.
			s.wakeAll()
			s.resumable = true
			return nil, nil
		}
		if s.cycle >= s.MaxCycles {
			return nil, fmt.Errorf("core: %s: exceeded %d cycles (committed %d instrs); livelock?",
				s.Machine.Name, s.MaxCycles, s.committed)
		}
		if s.Interrupt != nil && s.cycle >= nextInterruptPoll {
			nextInterruptPoll = s.cycle + interruptPeriod
			select {
			case <-s.Interrupt:
				return nil, fmt.Errorf("core: %s: %w at cycle %d", s.Machine.Name, ErrInterrupted, s.cycle)
			default:
			}
		}
		if s.alloc != nil && s.cycle >= s.alloc.nextAt {
			// Epoch boundary: runs between cycles, and a machine jump
			// clamps to nextAt, so the policy observes the machine at
			// exactly this cycle whether or not the loop jumped.
			s.allocEpoch()
		}
		s.sleepIdle()
		if s.nAsleep < len(s.clusters) || !s.jump() {
			s.step()
		}
		if s.obs != nil && s.cycle >= s.obs.nextAt {
			s.sample()
		}
	}
	if s.obs != nil && s.cycle > s.obs.prevCycle {
		// Partial tail: the run ended between boundaries.
		s.sample()
	}
	return s.result(), nil
}

func (s *Simulator) result() *Result {
	s.wakeAll()
	r := &Result{
		Machine:        s.Machine,
		ProgramName:    s.Program.Name,
		Cycles:         s.cycle,
		Slots:          s.slots,
		Committed:      s.committed,
		ForwardedLoads: s.forwardedLoads,
		MemStats:       s.msys.Stats,
		Invalidations:  s.msys.Dir.Invalidations,
		Downgrades:     s.msys.Dir.Downgrades,
		Writebacks:     s.msys.Dir.Writebacks,
		ThreeHops:      s.msys.Dir.ThreeHops,
		NetMessages:    s.msys.Net.Messages,
	}
	for _, sy := range s.syncs {
		r.LockAcquires += sy.LockAcquires
		r.LockConflicts += sy.LockConflicts
		r.BarrierWaits += sy.BarrierWaits
	}
	if s.cycle > 0 {
		r.IPC = float64(s.committed) / float64(s.cycle)
		r.AvgRunningThreads = s.runningAccum / float64(s.cycle)
	}
	if s.alloc != nil {
		r.AllocMigrations = s.alloc.migrations
		r.AllocEpochs = s.alloc.epoch
	}
	for _, cl := range s.clusters {
		r.BranchLookups += cl.bp.Lookups
		r.BranchMispredicts += cl.bp.Mispred
		r.BTBLookups += cl.btb.Lookups
		r.BTBMispredicts += cl.btb.Mispred
		r.RenameStalls += cl.renameStalls
		r.WindowFullStalls += cl.windowFullStalls
	}
	r.PerThreadCommitted = make([]uint64, len(s.threads))
	for i, t := range s.threads {
		r.PerThreadCommitted[i] = t.committed
	}
	for _, cl := range s.clusters {
		cs := cl.slots
		cs.Cycles = s.cycle
		r.PerCluster = append(r.PerCluster, ClusterStats{
			Chip:    cl.chip,
			Cluster: cl.idx,
			Slots:   cs,
			Threads: len(cl.threads),
		})
	}
	return r
}

// Result is the outcome of one simulation.
type Result struct {
	Machine     config.Machine
	ProgramName string

	Cycles    int64
	Slots     stats.Slots
	Committed uint64
	IPC       float64

	// AvgRunningThreads is the time-average of threads neither finished
	// nor blocked on synchronization — the paper's Figure 6 x-axis
	// measurement on FA8.
	AvgRunningThreads float64

	PerThreadCommitted []uint64
	// PerCluster breaks the issue-slot accounting down per cluster —
	// the within-chip view behind the machine-wide Slots.
	PerCluster []ClusterStats

	BranchLookups     uint64
	BranchMispredicts uint64
	BTBLookups        uint64
	BTBMispredicts    uint64
	RenameStalls      uint64
	WindowFullStalls  uint64
	ForwardedLoads    uint64

	MemStats      coherence.Stats
	LockAcquires  uint64
	LockConflicts uint64
	BarrierWaits  uint64
	Invalidations uint64
	Downgrades    uint64
	Writebacks    uint64
	ThreeHops     uint64
	NetMessages   uint64

	// AllocMigrations counts accepted thread migrations and AllocEpochs
	// the allocation-policy epoch boundaries evaluated; both stay zero
	// for static placement and the oracle's fixed assignments.
	AllocMigrations uint64
	AllocEpochs     uint64
}

// ClusterStats is one cluster's share of the issue-slot accounting.
type ClusterStats struct {
	Chip    int
	Cluster int
	Slots   stats.Slots
	Threads int
}

// MispredictRate returns conditional-branch mispredictions per lookup.
func (r *Result) MispredictRate() float64 {
	if r.BranchLookups == 0 {
		return 0
	}
	return float64(r.BranchMispredicts) / float64(r.BranchLookups)
}

// String summarizes the run on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s %s: %d cycles, %d instrs, IPC %.2f [%s]",
		r.Machine.Name, r.ProgramName, r.Cycles, r.Committed, r.IPC, r.Slots.String())
}
