package core

import (
	"fmt"

	"clustersmt/internal/config"
	"clustersmt/internal/interp"
	"clustersmt/internal/isa"
	"clustersmt/internal/parallel"
	"clustersmt/internal/stats"
)

// blockReason says why a thread's front end is stalled.
type blockReason uint8

const (
	blockNone    blockReason = iota
	blockBranch              // mispredicted branch in flight; resume at resolve
	blockLock                // spinning on a held lock
	blockBarrier             // parked at a barrier
	blockMigrate             // pipeline refill after a cluster migration
)

// threadCtx is one hardware context: a functional thread plus its
// front-end state and in-flight bookkeeping.
type threadCtx struct {
	id      int
	chip    int
	cluster *cluster
	fn      *interp.Thread
	// sync is the thread's synchronization controller (shared by all
	// threads of one parallel program; private per multiprogrammed job).
	sync *parallel.Sync
	// memBase offsets the thread's addresses in the physical memory
	// system (0 for a shared-address-space program; per-job stride for
	// multiprogramming).
	memBase int64

	block         blockReason
	pendingBranch ref  // mispredicted branch being waited on
	lockGranted   bool // TryLock succeeded while blocked; consume at fetch
	barArrived    bool
	barTarget     uint64

	// migrateTo, when non-nil, marks the thread as draining for a
	// migration to that cluster: fetch skips it, its in-flight window
	// empties through normal commit, and the move happens between
	// cycles once inWindow reaches zero (core/alloc.go). migrateReady
	// is the cycle the post-move blockMigrate refill stall lifts.
	migrateTo    *cluster
	migrateReady int64

	// lastWriter* may point at entries that committed long ago, so they
	// are seq-checked refs (entry.go, the stale-handle rule).
	lastWriterInt [isa.NumIntRegs]ref
	lastWriterFP  [isa.NumFPRegs]ref

	// fifo is the thread's uncommitted instructions in program order, for
	// in-order commit: a WindowEntries-deep ring (every cluster of a
	// machine has the same Arch, so it travels with a migrating thread).
	fifo     ring
	inWindow int

	// frontEvent caches the cycle the fifo front can first commit:
	// its completeAt once issued, noEvent while it is still dispatched
	// or the fifo is empty. Commit's per-cycle poll over every thread
	// then compares one cached int instead of dereferencing the front
	// entry. Maintained at the three places the front can change:
	// push into an empty fifo, the front entry issuing, and pop.
	frontEvent int64

	fetched   uint64
	committed uint64
}

// done reports whether the thread has halted and drained.
func (t *threadCtx) done() bool { return t.fn.Halted && t.inWindow == 0 }

// fifoPop retires the fifo front and re-derives frontEvent from the
// entry behind it.
func (t *threadCtx) fifoPop() {
	t.fifo.pop()
	t.frontEvent = noEvent
	if t.fifo.len() > 0 {
		if f := &t.cluster.pool[t.fifo.front()]; f.state != stateDispatched {
			t.frontEvent = f.completeAt
		}
	}
}

// cluster is one SMT core: the unit of resource partitioning. Nothing
// in a cluster is visible to any other cluster (§3.3).
type cluster struct {
	chip int
	idx  int
	// gid is the cluster's index in Simulator.clusters (chip-major
	// global order) — the order the cycle loop visits clusters in.
	gid int
	cfg config.Arch

	threads []*threadCtx
	// migrateIn counts accepted-but-not-yet-completed migrations headed
	// here; capacity checks charge them so an epoch can never oversubscribe
	// a cluster's hardware contexts.
	migrateIn int
	// pool holds every window entry of the cluster, allocated once and
	// indexed by handle; free is the stack of unoccupied slots. Live
	// entries never exceed WindowEntries and committed ones linger at
	// most a quarter window before the sweep returns their slots (see
	// commit), so WindowEntries + WindowEntries/4 slots always suffice:
	// exhaustion is a bug and panics (overflow).
	pool []entry
	free []handle

	window  []handle // reorder buffer: dispatch -> commit, in seq order
	iqCount int      // instruction-queue occupancy: dispatch -> issue
	zombies int      // committed entries not yet swept out of window
	seq     uint64

	// stores is the store-forwarding table (storetable.go).
	stores storeTable

	renameIntFree int
	renameFPFree  int

	// nextFree[i] is the cycle unit i of the class becomes available.
	intUnits  []int64
	ldstUnits []int64
	fpUnits   []int64

	// minFree[fuIdx(class)] caches the earliest next-free cycle across
	// the class's units, so a failed freeUnit probe (and a sleep probe's
	// next-event computation) is O(1) instead of a scan.
	minFree [3]int64

	// Issue-stage state (wakeup.go): the front-end pending ring
	// (entries not yet past the decode/rename delay, in fetch and hence
	// eligibleAt order), the wakeup wheel, the seq-sorted ready list,
	// and the waiting entries' hazard tallies maintained incrementally.
	// All fixed-capacity.
	pending   ring
	wheel     wheel
	ready     []handle
	waitMemN  int
	waitDataN int

	bp  *BranchPredictor
	btb *BTB

	// icount selects the ICOUNT fetch policy (fewest in-flight
	// instructions first) instead of pure round-robin — the Tullsen
	// alternative §5.2 mentions for the centralized SMT's fetch
	// bottleneck. Off by default.
	icount bool

	fetchRR  int
	commitRR int
	// anyBlocked gates unblock's scan: threadVotes re-derives it at the
	// end of every slot, and it is set where a thread blocks between
	// slots (a migration landing) or arrives unseen (construction).
	anyBlocked bool

	// Per-run counters.
	slots            stats.Slots
	renameStalls     uint64
	fetchGroups      uint64
	windowFullStalls uint64

	// pcHighWater is an upper bound on every static PC this cluster's
	// threads have touched (executed, or peeked by the front end /
	// quiescence probes): it tracks the post-Step PC, which dominates
	// both the executed PC and the PC any subsequent Peek reads. The
	// fork path compares it against Program.PrefixLen to decide whether
	// a warm-up checkpoint is still variant-independent (snapshot.go).
	pcHighWater int64
}

// poolSlots is the entry-pool capacity for a window of the given size:
// the live bound plus the zombie bound (commit's sweep threshold).
func poolSlots(windowEntries int) int { return windowEntries + windowEntries/4 }

func newCluster(chip, idx int, cfg config.Arch) *cluster {
	n := poolSlots(cfg.WindowEntries)
	c := &cluster{
		chip:          chip,
		idx:           idx,
		cfg:           cfg,
		pool:          make([]entry, n+1), // slot 0 is the "no entry" handle
		free:          make([]handle, n),
		window:        make([]handle, 0, n),
		stores:        newStoreTable(n),
		pending:       newRing(cfg.WindowEntries),
		wheel:         newWheel(n + 2*cfg.WindowEntries),
		ready:         make([]handle, 0, cfg.WindowEntries),
		renameIntFree: cfg.RenameInt,
		renameFPFree:  cfg.RenameFP,
		intUnits:      make([]int64, cfg.IntUnits),
		ldstUnits:     make([]int64, cfg.LdStUnits),
		fpUnits:       make([]int64, cfg.FPUnits),
		bp:            NewBranchPredictor(cfg.PredictorSize()),
		btb:           NewBTB(cfg.BTBSize()),
		anyBlocked:    true,
	}
	for i := range c.free {
		c.free[i] = handle(n - i) // popped from the end: slot 1 first
	}
	return c
}

// overflow panics for a fixed-capacity structure that filled up. Every
// capacity is derived from WindowEntries and guarded by the fetch
// stage's window check, so reaching one is a simulator bug.
func (c *cluster) overflow(what string) {
	panic(fmt.Sprintf("core: chip %d cluster %d: %s exhausted (window %d entries)", c.chip, c.idx, what, c.cfg.WindowEntries))
}

// allocEntry takes a free pool slot. The caller overwrites it whole.
func (c *cluster) allocEntry() handle {
	n := len(c.free)
	if n == 0 {
		c.overflow("entry pool")
	}
	h := c.free[n-1]
	c.free = c.free[:n-1]
	return h
}

func (c *cluster) units(class isa.Class) []int64 {
	switch class {
	case isa.ClassLoad, isa.ClassStore:
		return c.ldstUnits
	case isa.ClassFP:
		return c.fpUnits
	default:
		return c.intUnits
	}
}

// fuIdx maps a functional-unit class to its minFree slot.
func fuIdx(class isa.Class) int {
	switch class {
	case isa.ClassLoad, isa.ClassStore:
		return 1
	case isa.ClassFP:
		return 2
	default:
		return 0
	}
}

// freeUnit returns the index of an available unit of the class at cycle
// now, or -1. The cached class minimum rejects the all-busy case — the
// common outcome under structural hazards and the one quiescence
// probes — without touching the array.
func (c *cluster) freeUnit(class isa.Class, now int64) int {
	if c.minFree[fuIdx(class)] > now {
		return -1
	}
	us := c.units(class)
	for i, free := range us {
		if free <= now {
			return i
		}
	}
	return -1
}

// busyUnit marks unit of class busy until the given cycle, keeping the
// class's cached minimum next-free cycle exact.
func (c *cluster) busyUnit(class isa.Class, unit int, until int64) {
	us := c.units(class)
	us[unit] = until
	min := us[0]
	for _, f := range us[1:] {
		if f < min {
			min = f
		}
	}
	c.minFree[fuIdx(class)] = min
}

// nextUnitFree returns the earliest cycle any unit of the class frees —
// with every unit busy, the class's next structural event.
func (c *cluster) nextUnitFree(class isa.Class) int64 {
	return c.minFree[fuIdx(class)]
}

// ---- commit ----

// commit retires up to IssueWidth completed instructions across the
// cluster's threads, each thread strictly in order (§3.2: "instructions
// are committed on a per-thread basis"). It reports whether anything
// retired (the commit half of the cluster's progress signal).
func (c *cluster) commit(s *Simulator, now int64) bool {
	budget := c.cfg.IssueWidth
	removed := false
	n := len(c.threads)
	for i, j := 0, c.commitRR%max(n, 1); i < n && budget > 0; i++ {
		t := c.threads[j]
		if j++; j == n {
			j = 0
		}
		for budget > 0 && t.frontEvent <= now {
			h := t.fifo.front()
			e := &c.pool[h]
			t.fifoPop()
			if e.isStore {
				if s.tr != nil {
					pre := s.dirCounters()
					s.msys.Store(now, c.chip, e.d.Addr+t.memBase)
					s.traceDirDelta(now, c, e, pre)
				} else {
					s.msys.Store(now, c.chip, e.d.Addr+t.memBase)
				}
			}
			if e.usesIntRename {
				c.renameIntFree++
			}
			if e.usesFPRename {
				c.renameFPFree++
			}
			e.committed = true
			c.zombies++
			if e.isStore {
				c.stores.retire(e.tid, e.d.Addr, h)
			}
			t.inWindow--
			if t.fn.Halted && t.inWindow == 0 {
				// The thread just drained after its halt: it leaves the
				// running-thread count (it cannot be sync-blocked here —
				// blocked threads never fetch, so they never halt).
				s.running--
				s.finished++
			}
			t.committed++
			s.committed++
			s.traceEvent(now, c, "C", e)
			budget--
			removed = true
		}
	}
	c.commitRR++

	// Compact lazily: committed entries are invisible to every window
	// walk already (their state is not dispatched), so sweeping them out
	// each cycle buys nothing. They only pad the slice, which the
	// capacity checks correct for via c.zombies. Sweep once a
	// quarter-window of zombies accumulates (or the window is all
	// zombies, so the sweep is free), skipping the still-uncommitted
	// prefix in place. The sweep is where pool slots are recycled: a
	// zombie keeps its slot — and so stays inspectable through every
	// handle — until it leaves the window. Zombies therefore never
	// exceed the threshold between cycles, which with the fetch stage's
	// live bound caps the window (and the pool) at poolSlots. A freed
	// slot keeps its contents until fetch reuses it, so this cycle's
	// wheel event for a just-swept producer still finds its consumers.
	if threshold := c.cfg.WindowEntries / 4; c.zombies > 0 &&
		(c.zombies > threshold || c.zombies == len(c.window)) {
		w := c.window
		i := 0
		for i < len(w) && !c.pool[w[i]].committed {
			i++
		}
		j := i
		for ; i < len(w); i++ {
			if h := w[i]; c.pool[h].committed {
				c.free = append(c.free, h)
			} else {
				w[j] = h
				j++
			}
		}
		c.window = w[:j]
		c.zombies = 0
	}
	return removed
}

// ---- issue ----

// tryIssue attempts to start a source-ready entry on a functional unit
// at cycle now. On failure it records the entry's hazard vote —
// structural on FU exhaustion, data behind a pending same-address
// store, memory when the MSHR file is full — and reports false; the
// caller retries next cycle.
func (c *cluster) tryIssue(s *Simulator, h handle, now int64, votes *stats.Votes) bool {
	e := &c.pool[h]
	class := e.fuCl
	unit := c.freeUnit(class, now)
	if unit < 0 {
		votes[stats.Structural]++
		return false
	}

	var completeAt int64
	switch {
	case e.isLoad:
		if st := c.forwardingStore(e); st != nil {
			if !st.done(now) {
				// Store-to-load dependence through memory whose
				// producer has not generated its value yet.
				votes[stats.Data]++
				return false
			}
			e.forwarded = true
			completeAt = now + e.lat
			s.forwardedLoads++
		} else {
			var pre dirCounters
			if s.tr != nil {
				pre = s.dirCounters()
			}
			dataReady, cls, ok := s.msys.Load(now, c.chip, e.d.Addr+s.threads[e.tid].memBase)
			if !ok {
				// MSHR file full: retry next cycle.
				votes[stats.Memory]++
				return false
			}
			e.memClass = cls
			// Table 1 charges loads 2 cycles on an L1 hit: address
			// generation plus the 1-cycle L1 round trip returned by
			// the memory system.
			completeAt = dataReady + 1
			if s.tr != nil {
				s.traceMem(now, completeAt, c, e, cls)
				s.traceDirDelta(now, c, e, pre)
			}
		}
	case e.isStore:
		// Address generation only; the access itself happens at
		// commit and never blocks the pipeline.
		completeAt = now + e.lat
	default:
		lat := e.lat
		if lat <= 0 {
			lat = 1
		}
		completeAt = now + lat
	}

	c.busyUnit(class, unit, now+e.occ)

	e.state = stateIssued
	e.completeAt = completeAt
	if t := s.threads[e.tid]; t.fifo.front() == h {
		t.frontEvent = completeAt
	}
	c.iqCount--
	s.traceEvent(now, c, "I", e)
	c.wake(h)
	return true
}

// ---- fetch ----

// unblock re-evaluates every blocked thread at the start of the fetch
// stage: branch redirects resolve when the branch completes; lock
// spinners retry acquisition (grant order follows deterministic
// simulator polling order); barrier waiters check the generation. It
// reports whether any thread resumed (failed lock polls do not count:
// they leave the cluster frozen and are bulk-replayed when it sleeps).
// The scan is skipped while no thread is blocked, which threadVotes
// noted at the end of the last cycle's slot.
func (c *cluster) unblock(s *Simulator, now int64) bool {
	if !c.anyBlocked {
		return false
	}
	resumed := false
	for _, t := range c.threads {
		switch t.block {
		case blockBranch:
			if c.refDone(t.pendingBranch, now) {
				t.block = blockNone
				t.pendingBranch = ref{}
				resumed = true
			}
		case blockLock:
			if !t.lockGranted && t.sync.TryLock(t.fn.Peek().Imm, t.id) {
				t.lockGranted = true
			}
			if t.lockGranted {
				t.block = blockNone
				s.running++
				resumed = true
			}
		case blockBarrier:
			if t.sync.Released(t.fn.Peek().Imm, t.barTarget) {
				t.block = blockNone
				s.running++
				resumed = true
			}
		case blockMigrate:
			// Pipeline refill after a migration: a plain timed stall, not
			// a synchronization block, so the running count never moved.
			if now >= t.migrateReady {
				t.block = blockNone
				resumed = true
			}
		}
	}
	return resumed
}

// fetch selects a thread round-robin (§3.2) and pulls up to IssueWidth
// instructions from its functional context into the window, stopping at
// taken branches, mispredictions, blocking sync, halts, or resource
// exhaustion. Slots the first thread leaves unused are offered to one
// more thread (the fetch-partitioning alternative of [Tullsen et al.]
// that §5.2 cites), which keeps many-context clusters from starving
// chain-bound threads.
func (c *cluster) fetch(s *Simulator, now int64, votes *stats.Votes) bool {
	budget := c.cfg.IssueWidth
	progress := false
	for picks := 0; picks < 2 && budget > 0; picks++ {
		t := c.pickFetchThread()
		if t == nil {
			break
		}
		// Progress means instructions entered the window or the thread's
		// block state changed; a fruitless stalled pick is not progress
		// (its counters are bulk-replayed when the cluster wakes).
		fetchedBefore, blockBefore := t.fetched, t.block
		budget = c.fetchFrom(s, t, now, budget, votes)
		if t.fetched != fetchedBefore || t.block != blockBefore {
			progress = true
		}
	}
	return progress
}

// fetchFrom pulls up to budget instructions from t, returning the
// unused budget.
func (c *cluster) fetchFrom(s *Simulator, t *threadCtx, now int64, budget int, votes *stats.Votes) int {
	c.fetchGroups++

	width := budget
	for n := 0; n < width; n++ {
		if t.fn.Halted {
			break
		}
		// Table 2 sizes the instruction queue and the reorder buffer
		// separately (equal sizes): issued instructions leave the
		// queue, so long-latency loads in flight do not clog it.
		if len(c.window)-c.zombies >= c.cfg.WindowEntries || c.iqCount >= c.cfg.WindowEntries {
			c.windowFullStalls++
			break
		}
		in := t.fn.Peek()
		inf := in.Info()

		// Synchronization is resolved at the front end; the paper's
		// spin-wait slots surface as the thread voting "sync" while
		// blocked here.
		switch in.Op {
		case isa.OpLock:
			if t.lockGranted {
				t.lockGranted = false
			} else if !t.sync.TryLock(in.Imm, t.id) {
				t.block = blockLock
				s.running--
				return 0 // fetch redirect consumes the cycle
			}
		case isa.OpUnlock:
			t.sync.Unlock(in.Imm, t.id)
			s.releases++
		case isa.OpBarrier:
			arrived := t.barArrived
			if !arrived {
				t.barTarget = t.sync.Arrive(in.Imm)
				t.barArrived = true
			}
			if !t.sync.Released(in.Imm, t.barTarget) {
				t.block = blockBarrier
				s.running--
				return 0 // fetch redirect consumes the cycle
			}
			if !arrived {
				s.releases++ // this arrival tripped the barrier
			}
			t.barArrived = false
		}

		// Rename: one register from the matching pool per destination.
		needInt := inf.WritesRD && in.RD != isa.RegZero
		needFP := inf.WritesFD
		if (needInt && c.renameIntFree == 0) || (needFP && c.renameFPFree == 0) {
			c.renameStalls++
			votes[stats.Other]++
			return 0
		}

		d := t.fn.Step()
		if pc := t.fn.PC; pc > c.pcHighWater {
			// Post-Step PC: the next instruction this thread can touch.
			// Recording it (rather than d.PC) also covers front-end Peeks
			// that never reach Step — a thread's current PC is always some
			// earlier Step's post-PC, or the entry point.
			c.pcHighWater = pc
		}
		fc := inf.Class
		if fc == isa.ClassNone {
			// Sync and halt pseudo-ops borrow an integer unit slot.
			fc = isa.ClassInt
		}
		occ := int64(1)
		if !inf.Pipel {
			occ = int64(inf.Latency)
		}
		h := c.allocEntry()
		e := &c.pool[h]
		*e = entry{
			d:          d,
			tid:        int32(t.id),
			seq:        c.seq,
			fetchedAt:  now,
			eligibleAt: now + config.FrontEndDelay,
			fuCl:       fc,
			lat:        int64(inf.Latency),
			occ:        occ,
			isLoad:     inf.Class == isa.ClassLoad,
			isStore:    inf.Class == isa.ClassStore,
			isBranch:   inf.Branch,
		}
		c.seq++

		// Wire register dependences to in-flight producers.
		np := 0
		if inf.ReadsRS1 && in.RS1 != isa.RegZero {
			np = e.addProducer(t.lastWriterInt[in.RS1], np)
		}
		if inf.ReadsRS2 && in.RS2 != isa.RegZero {
			np = e.addProducer(t.lastWriterInt[in.RS2], np)
		}
		if inf.ReadsFS1 {
			np = e.addProducer(t.lastWriterFP[in.FS1], np)
		}
		if inf.ReadsFS2 {
			np = e.addProducer(t.lastWriterFP[in.FS2], np)
		}
		if needInt {
			c.renameIntFree--
			e.usesIntRename = true
			t.lastWriterInt[in.RD] = c.refOf(h)
		}
		if needFP {
			c.renameFPFree--
			e.usesFPRename = true
			t.lastWriterFP[in.FD] = c.refOf(h)
		}

		// Memory-dependence bookkeeping: stores publish themselves as
		// the youngest write to their address; loads bind the current
		// youngest as their forwarding candidate (addresses are known
		// at fetch, §3.1).
		switch {
		case e.isStore:
			c.stores.put(e.tid, e.d.Addr, h)
		case e.isLoad:
			if st := c.stores.get(e.tid, e.d.Addr); st != 0 {
				e.fwdStore = c.refOf(st)
			}
		}

		if len(c.window) == cap(c.window) {
			c.overflow("window")
		}
		c.window = append(c.window, h)
		c.iqCount++
		if !t.fifo.push(h) {
			c.overflow("thread fifo")
		}
		t.inWindow++
		t.fetched++
		s.traceEvent(now, c, "F", e)
		c.dispatchEvent(h)

		if inf.Branch {
			if c.handleBranch(t, h, d) {
				// The redirect point: no wrong-path instructions were
				// fetched, so the squash marks where fetch stops.
				s.traceEvent(now, c, "S", e)
				return 0 // mispredicted: fetch blocked until resolve
			}
			if d.Taken {
				// The taken branch ends this thread's group; leftover
				// slots may go to the next thread.
				return budget - (n + 1)
			}
		}
	}
	fetched := width
	if len(c.window)-c.zombies >= c.cfg.WindowEntries || c.iqCount >= c.cfg.WindowEntries || t.fn.Halted {
		// Window-full and halt paths may have consumed fewer slots,
		// but a full window ends the cycle's fetching entirely.
		return 0
	}
	return budget - fetched
}

// handleBranch trains the predictors and, on a misprediction, blocks
// the thread's fetch until the branch resolves. It returns true when
// fetch must stop because of a misprediction.
func (c *cluster) handleBranch(t *threadCtx, h handle, d interp.DynInstr) bool {
	e := &c.pool[h]
	switch {
	case d.Instr.Info().CondBr:
		_, correct := c.bp.PredictAndUpdate(d.PC, d.Taken)
		if !correct {
			e.mispredicted = true
		}
	case d.Instr.Op == isa.OpJr:
		_, correct := c.btb.PredictAndUpdate(d.PC, d.Target)
		if !correct {
			e.mispredicted = true
		}
	default:
		// Direct jumps (jump/jal) have statically known targets: no
		// misprediction, just a fetch break handled by the caller.
	}
	if e.mispredicted {
		t.block = blockBranch
		t.pendingBranch = c.refOf(h)
		return true
	}
	return false
}

// pickFetchThread returns the next fetchable thread — round-robin by
// default, or the thread with the fewest in-flight instructions under
// the ICOUNT policy (round-robin breaks ties) — or nil when no thread
// can fetch this cycle.
func (c *cluster) pickFetchThread() *threadCtx {
	n := len(c.threads)
	var best *threadCtx
	for i, j := 0, c.fetchRR; i < n; i++ {
		t := c.threads[j]
		if j++; j == n {
			j = 0
		}
		if t.fn.Halted || t.block != blockNone || t.migrateTo != nil {
			continue
		}
		if best == nil || t.inWindow < best.inWindow {
			best, c.fetchRR = t, j
		}
		if !c.icount {
			break
		}
	}
	return best
}

// threadVotes adds the per-thread front-end hazard votes for this cycle
// (§4.1: sync, control and fetch classes).
func (c *cluster) threadVotes(votes *stats.Votes) {
	c.anyBlocked = false
	for _, t := range c.threads {
		if t.block != blockNone {
			c.anyBlocked = true
		}
		switch {
		case t.done():
			// Finished threads contribute nothing.
		case t.block == blockLock || t.block == blockBarrier:
			votes[stats.Sync]++
		case t.block == blockBranch:
			votes[stats.Control]++
		case t.block == blockMigrate:
			// Migration refill is charged as an "other" pipeline stall —
			// it is neither synchronization nor a control hazard.
			votes[stats.Other]++
		case t.inWindow == 0:
			votes[stats.Fetch]++
		}
	}
}
