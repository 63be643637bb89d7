package core

import (
	"errors"
	"fmt"

	"clustersmt/internal/coherence"
	"clustersmt/internal/config"
	"clustersmt/internal/interp"
	"clustersmt/internal/isa"
	"clustersmt/internal/obs"
	"clustersmt/internal/prog"
	"clustersmt/internal/snap"
	"clustersmt/internal/stats"
)

// This file implements checkpoint/restore and copy-on-write forking.
//
// Snapshot serializes the complete simulator state — clusters (entry
// pool, wakeup wheel, predictors, per-thread front-end state),
// synchronization controller, sampler ring, functional memory and the
// timing memory system — into a versioned, self-validating binary
// envelope. Restore rebuilds an equivalent simulator from the bytes;
// ForkProgram clones a paused simulator in memory, sharing the interp
// memory pages and cache tag arrays copy-on-write so a warmed parent
// can be forked once per sweep variant at near-zero cost.
//
// The contract is the house one: bit-identity, not approximation.
// Running a restored or forked simulator to completion produces a
// Result (and off-Result memory/coherence counters, and obs frames)
// reflect.DeepEqual to running the original from scratch — guarded by
// TestCheckpointDifferential across every preset × machine.
//
// Encoding invariants:
//
//   - Snapshots are taken between cycles (a fresh simulator, one paused
//     by RunTo, or a completed one).
//   - Window entries are written as their cluster's pool, slot by slot
//     in handle order, followed by the free stack. A handle is a slot
//     index, so it already is its own serialized id: every structure
//     that names an entry (fifos, refs, wheel, store table) is
//     written as the handles it holds, and decoding needs no id map and
//     no fix-up pass. Static instruction words are NOT serialized: an
//     entry's instruction is its program's decoded slot at d.PC, which
//     is what lets a prefix checkpoint restore under a different
//     same-prefix program variant.
//   - Nothing is normalized except ring head offsets (fifo and pending
//     restart at position 0, which no reader can observe): the free
//     stack, the wheel's heap array and the store table's slot layout
//     are written as they are, so Restore followed by Snapshot
//     reproduces the payload byte for byte.
//   - Every container is allocated by the freshly built shell from the
//     machine configuration, never from a count in the payload, so a
//     crafted payload cannot demand memory. Decoding range-checks what
//     it reads (counts against capacities, handles against the pool,
//     enums against their bounds), then cluster.audit checks the
//     structural invariants a genuine between-cycles state has — pool
//     conservation, no slot held twice, every handle naming a live
//     entry — and anything else is ErrSnapshotCorrupt, never a panic;
//     FuzzSnapshotDecode holds it to that.

// SnapshotVersion is the current checkpoint format version. Any change
// to the encoding must bump it; Restore refuses every other version
// with ErrSnapshotVersion. Checkpoints are a cache, not an archive: the
// harness keys persisted ones by version, so after a bump old files are
// simply never looked up and the warm-up re-runs. Version 9 wakes
// consumers when their producers issue: an entry carries its unissued
// producer counts and latest producer completions, and a wheel event
// names a waiting entry by bare handle, one per entry (no completion
// events). Version 8 frees a
// window entry's slot at commit, so a cluster no longer writes a window
// list, its queue, zombie and fetch-group counters, a thread's
// in-window count, or an entry's fetch cycle, branch, misprediction,
// forwarding and access-class fields. Version 7 names the program by
// digests that stream repeated image extents as their period and
// writes each cluster's BTB tables only once allocated, behind a
// presence byte; version 6 named it by the v2 digests (prog's
// run-length image stream); version 5 dropped the per-chip loop's cycle
// counter version 4 carried in the core section.
const SnapshotVersion = 9

// snapMagic is "CSMT" as a big-endian u32.
const snapMagic = 0x43534d54

// maxSnapshotRingCap bounds the sampler ring capacity a checkpoint may
// declare: the decoder pre-allocates the ring, so the bound is what
// keeps a crafted payload from demanding an arbitrarily large
// allocation. Far above DefaultRingCap; Snapshot refuses larger rings.
const maxSnapshotRingCap = 1 << 16

// Typed snapshot errors, matchable with errors.Is.
var (
	// ErrSnapshotVersion is returned by Restore for a checkpoint whose
	// format version this build does not understand.
	ErrSnapshotVersion = errors.New("core: unsupported snapshot version")
	// ErrSnapshotTruncated is returned when the payload ends before the
	// decoder is done (an alias of the codec's sentinel, re-exported so
	// callers need not import internal/snap).
	ErrSnapshotTruncated = snap.ErrTruncated
	// ErrSnapshotCorrupt is returned for structurally invalid payloads:
	// bad magic, out-of-range indices, impossible counts.
	ErrSnapshotCorrupt = errors.New("core: corrupt snapshot")
	// ErrSnapshotMismatch is returned when a checkpoint is replayed
	// against a different machine configuration or an incompatible
	// program (neither the full fingerprint nor a valid shared prefix
	// matches).
	ErrSnapshotMismatch = errors.New("core: snapshot does not match machine/program")
	// ErrSnapshotUnsupported is returned by Snapshot/Fork for simulator
	// configurations the checkpoint format does not cover.
	ErrSnapshotUnsupported = errors.New("core: simulator not snapshottable")
)

// PCHighWater returns an upper bound on every static PC any thread has
// touched so far (see cluster.pcHighWater). While it stays below
// Program.PrefixLen, the simulator's entire state is a function of the
// shared prefix only, so checkpoints and forks transfer to any program
// with the same PrefixKey.
func (s *Simulator) PCHighWater() int64 {
	var hw int64
	for _, c := range s.clusters {
		if c.pcHighWater > hw {
			hw = c.pcHighWater
		}
	}
	return hw
}

// PrefixValid reports whether the simulator's state is still a function
// of the program's marked shared prefix alone — the condition under
// which ForkProgram accepts a different same-prefix variant and a
// persisted snapshot restores under one.
func (s *Simulator) PrefixValid() bool {
	pl := int64(s.Program.PrefixLen)
	return pl > 0 && s.PCHighWater() < pl
}

// snapshotSupported reports why this simulator cannot be checkpointed
// or forked, or nil. The excluded configurations are all explicitly
// out of scope: multiprogrammed runs (per-job memories and sync
// controllers) and instruction tracing (the trace writer is an open
// file).
func (s *Simulator) snapshotSupported() error {
	if len(s.mems) > 1 {
		return fmt.Errorf("%w: multiprogrammed simulators", ErrSnapshotUnsupported)
	}
	if s.tr != nil {
		return fmt.Errorf("%w: instruction tracing active", ErrSnapshotUnsupported)
	}
	if len(s.migrating) != 0 {
		// A draining migration resolves within the longest in-flight
		// latency; callers pausing at an arbitrary cycle simply step past
		// it. Post-move refill stalls (blockMigrate) snapshot fine.
		return fmt.Errorf("%w: thread migration draining (mid-epoch state)", ErrSnapshotUnsupported)
	}
	if s.obs != nil && s.obs.ring.Cap() > maxSnapshotRingCap {
		return fmt.Errorf("%w: sampler ring capacity %d exceeds %d", ErrSnapshotUnsupported, s.obs.ring.Cap(), maxSnapshotRingCap)
	}
	return nil
}

// Snapshot serializes the full simulator state into a stable,
// versioned binary form. The simulator must be between cycles: fresh,
// paused by RunTo, or completed. The envelope carries the machine's
// canonical hash and the program's fingerprint (plus its prefix key
// when the state is still prefix-only), which Restore checks before
// touching the payload.
func (s *Simulator) Snapshot() ([]byte, error) {
	if err := s.snapshotSupported(); err != nil {
		return nil, err
	}
	w := snap.NewWriter()
	w.U32(snapMagic)
	w.U32(SnapshotVersion)
	mh := s.Machine.Hash()
	w.Bytes8(mh[:])
	fp := s.Program.Fingerprint()
	w.Bytes8(fp[:])
	key, ok := s.Program.PrefixKey()
	w.Bool(ok && s.PrefixValid())
	w.Bytes8(key[:])
	x := w.Xfer()
	s.encodeCore(x)
	s.mem.XferSnap(x)
	s.msys.XferSnap(x)
	return w.Bytes(), nil
}

// Restore builds a simulator from a Snapshot payload. The machine must
// hash-match the one the snapshot was taken on; the program must either
// fingerprint-match the original or share its marked prefix while the
// snapshot's state was still prefix-only. On any error the returned
// simulator is nil and nothing else is affected — Restore decodes into
// a freshly built shell, so a bad payload can never leave a live
// simulator partially mutated. The restored simulator is resumable:
// Run/RunTo continue from the checkpointed cycle.
func Restore(m config.Machine, p *prog.Program, data []byte) (*Simulator, error) {
	r := snap.NewReader(data)
	magic, ver := r.U32(), r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: snapshot header: %w", err)
	}
	if magic != snapMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrSnapshotCorrupt, magic)
	}
	if ver != SnapshotVersion {
		return nil, fmt.Errorf("%w: payload version %d, this build reads %d", ErrSnapshotVersion, ver, SnapshotVersion)
	}
	mh := r.Bytes8()
	fp := r.Bytes8()
	prefixOK := r.Bool()
	pk := r.Bytes8()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: snapshot header: %w", err)
	}
	if len(mh) != 32 || len(fp) != 32 || len(pk) != 32 {
		return nil, fmt.Errorf("%w: malformed identity hashes", ErrSnapshotCorrupt)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if want := m.Hash(); string(mh) != string(want[:]) {
		return nil, fmt.Errorf("%w: machine configuration differs", ErrSnapshotMismatch)
	}
	// The prefix key is tried first: a sweep variant restoring a shared
	// warm-up matches on it and never needs its full fingerprint.
	key, ok := p.PrefixKey()
	if !prefixOK || !ok || string(pk) != string(key[:]) {
		if want := p.Fingerprint(); string(fp) != string(want[:]) {
			return nil, fmt.Errorf("%w: program differs and no shared warm-up prefix applies", ErrSnapshotMismatch)
		}
	}
	s, err := newShell(m, p, interp.NewMemory(), coherence.NewSystem(m.Chips, m.Mem))
	if err != nil {
		return nil, err
	}
	x := r.Xfer()
	if err := s.decodeCore(x); err != nil {
		return nil, err
	}
	s.mem.XferSnap(x)
	s.msys.XferSnap(x)
	if err := r.Err(); err != nil {
		return nil, snapErr(err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, r.Remaining())
	}
	s.resumable = true
	return s, nil
}

// ForkProgram clones a paused simulator, rebinding it to program p2:
// the warm-up amortization primitive. p2 must either be (fingerprint-)
// identical to the running program, or share its marked prefix while
// the simulator's state is still prefix-only (PrefixValid) — i.e. the
// machine has so far executed nothing a same-prefix variant would do
// differently. In-flight instructions are re-derived from p2's code at
// their recorded PCs, so the child continues seamlessly into the
// variant's post-prefix code.
func (s *Simulator) ForkProgram(p2 *prog.Program) (*Simulator, error) {
	if err := s.snapshotSupported(); err != nil {
		return nil, err
	}
	if p2 != s.Program {
		// Prefix keys first: the common caller is a sweep forking variants
		// off a warmed parent under the parent's lock, and a variant that
		// matches here is never fingerprinted at all. The accepted set is
		// the same in either order.
		k1, ok1 := s.Program.PrefixKey()
		k2, ok2 := p2.PrefixKey()
		samePrefix := ok1 && ok2 && k1 == k2
		if !(samePrefix && s.PrefixValid()) && p2.Fingerprint() != s.Program.Fingerprint() {
			if !samePrefix {
				return nil, fmt.Errorf("%w: programs share no marked prefix", ErrSnapshotMismatch)
			}
			return nil, fmt.Errorf("%w: execution ran past the shared prefix (pc high water %d, prefix %d)",
				ErrSnapshotMismatch, s.PCHighWater(), s.Program.PrefixLen)
		}
	}
	w := snap.NewWriter()
	s.encodeCore(w.Xfer())
	cp, err := newShell(s.Machine, p2, s.mem.Fork(), s.msys.Fork())
	if err != nil {
		return nil, err
	}
	if err := cp.decodeCore(snap.NewReader(w.Bytes()).Xfer()); err != nil {
		// Cannot happen for bytes we just produced; surface rather than
		// hand back a half-decoded simulator.
		return nil, err
	}
	cp.resumable = true
	return cp, nil
}

// ---- field transfer ----

// xfer is the snapshot transfer (snap.Xfer: each section lists its
// fields once, so the encoder and the decoder cannot drift apart) plus
// what only a cluster's sections need. A decoding violation latches on
// the reader, after which every read returns zero: sections run
// straight through and the caller checks Err at its checkpoints. The
// Xfer is embedded by value (it is two pointers and no state of its
// own) so the per-field direction test costs one load, not two.
type xfer struct {
	snap.Xfer
	c *cluster // the cluster being transferred: bounds its handles
}

func (x *xfer) corrupt(format string, args ...any) {
	x.Fail(fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...)))
}

// snapErr types a latched reader error: truncation stays matchable as
// ErrSnapshotTruncated, everything else is ErrSnapshotCorrupt.
func snapErr(err error) error {
	switch {
	case errors.Is(err, snap.ErrTruncated):
		return fmt.Errorf("core: snapshot payload: %w", err)
	case errors.Is(err, ErrSnapshotCorrupt):
		return err
	}
	return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
}

type integer interface {
	~int | ~int32 | ~int64 | ~uint8 | ~uint32 | ~uint64
}

// xi transfers an integer field; every integer is 8 bytes on the wire
// whatever its Go type (narrow types are range-checked by the caller).
func xi[T integer](x *xfer, p *T) {
	v := int64(*p)
	x.I64(&v)
	*p = T(v)
}

// handle transfers a handle, range-checked against the cluster's pool
// when decoding (0, "none", is in range).
func (x *xfer) handle(p *handle) {
	xi(x, p)
	if x.Decoding() && int(*p) >= len(x.c.pool) {
		x.corrupt("chip %d cluster %d: handle %d outside the %d-slot pool", x.c.chip, x.c.idx, *p, len(x.c.pool)-1)
		*p = 0
	}
}

func (x *xfer) ref(p *ref) {
	xi(x, &p.seq)
	x.handle(&p.h)
}

// handles transfers a counted handle list within its backing array.
func (x *xfer) handles(p *[]handle, what string) {
	snap.Slice(&x.Xfer, p, cap(*p), what, x.handle)
}

// ring transfers a FIFO front to back; decoding refills it from
// position 0 (head offsets are unobservable).
func (x *xfer) ring(q *ring, what string) {
	n := q.len()
	x.Count(&n, len(q.buf), what)
	if x.Decoding() {
		q.reset()
	}
	for i := 0; i < n; i++ {
		var h handle
		if !x.Decoding() {
			h = q.at(i)
		}
		x.handle(&h)
		if x.Decoding() {
			q.push(h)
		}
	}
}

func (x *xfer) slots(sl *stats.Slots) {
	snap.Each(sl.Counts[:], x.F64)
	x.I64(&sl.Cycles)
}

// ---- core section ----

// encodeCore writes everything except the bulk state (functional
// memory, timing memory system): simulator scalars, the sync
// controller, every cluster (entries, threads, predictors) and the
// sampler. Fork serializes only this section and shares the bulk state
// copy-on-write instead.
func (s *Simulator) encodeCore(x *snap.Xfer) { s.xferCore(&xfer{Xfer: *x}) }

// decodeCore overlays a core section onto a freshly built shell.
func (s *Simulator) decodeCore(x *snap.Xfer) error {
	if err := s.xferCore(&xfer{Xfer: *x}); err != nil {
		return snapErr(err)
	}
	if err := x.Err(); err != nil {
		return snapErr(err)
	}
	// With thread state fully decoded, enforce the capacity invariant
	// the residence-list pass deferred: live (unfinished) threads never
	// exceed a cluster's hardware contexts.
	for ci, cl := range s.clusters {
		live := 0
		for _, t := range cl.threads {
			if !t.done() {
				live++
			}
		}
		if live > cl.cfg.ThreadsPerCluster {
			return fmt.Errorf("%w: cluster %d holds %d live threads (capacity %d)", ErrSnapshotCorrupt, ci, live, cl.cfg.ThreadsPerCluster)
		}
	}
	return nil
}

// xferCore transfers the core section. It returns early, with the
// reader's error or its own, only where decoding on would be unsafe.
func (s *Simulator) xferCore(x *xfer) error {
	xi(x, &s.cycle)
	xi(x, &s.committed)
	xi(x, &s.forwardedLoads)
	x.F64(&s.runningAccum)
	xi(x, &s.running)
	xi(x, &s.finished)
	xi(x, &s.ffCycles)
	x.slots(&s.slots)
	s.syncs[0].XferSnap(&x.Xfer)
	if s.finished < 0 || s.finished > len(s.threads) || s.running < 0 || s.running > len(s.threads) {
		return fmt.Errorf("%w: thread accounting out of range", ErrSnapshotCorrupt)
	}
	// The current thread-to-cluster assignment, as each cluster's
	// thread-id list in residence order. Dynamic policies migrate
	// threads, so the freshly built shell's seed placement must be
	// overlaid before the per-cluster sections (which iterate c.threads)
	// can decode.
	if err := s.xferAssignment(x); err != nil {
		return err
	}
	for _, c := range s.clusters {
		x.c = c
		if err := c.xferSnap(x, s.Program, len(s.threads)); err != nil {
			return err
		}
	}
	// Migration refill state and the allocator's epoch state.
	for _, t := range s.threads {
		xi(x, &t.migrateReady)
	}
	hasAlloc := s.alloc != nil
	x.Bool(&hasAlloc)
	if x.Err() == nil && hasAlloc != (s.alloc != nil) {
		return fmt.Errorf("%w: allocator state presence disagrees with machine policy", ErrSnapshotCorrupt)
	}
	if a := s.alloc; a != nil {
		xi(x, &a.interval)
		xi(x, &a.nextAt)
		xi(x, &a.epoch)
		xi(x, &a.migrations)
		for i := range a.prevThreadCommitted {
			xi(x, &a.prevThreadCommitted[i])
		}
		for i := range a.lastMigrated {
			xi(x, &a.lastMigrated[i])
		}
		for i := range a.prevChipMem {
			a.prevChipMem[i].XferSnap(&x.Xfer)
		}
		if x.Err() == nil && a.interval <= 0 {
			return fmt.Errorf("%w: allocator epoch interval %d", ErrSnapshotCorrupt, a.interval)
		}
	}
	hasObs := s.obs != nil
	x.Bool(&hasObs)
	if hasObs {
		s.xferSampler(x)
	}
	return nil
}

// xferAssignment transfers each cluster's thread-id residence list.
// Decoding re-homes the shell's threads to match the encoded placement,
// so the per-cluster sections that follow iterate the same thread order
// the encoder did.
func (s *Simulator) xferAssignment(x *xfer) error {
	var seen []bool // decoding only, as is lists
	var lists [][]int
	if x.Decoding() {
		seen, lists = make([]bool, len(s.threads)), make([][]int, len(s.clusters))
	}
	for ci, c := range s.clusters {
		// Residence lists include finished threads, which stay on the
		// cluster that retired them, so a cluster that absorbed
		// migrations can legally list more threads than it has hardware
		// contexts. Only the total is bounded here; the live-thread
		// capacity invariant is checked after per-thread state decodes.
		n := len(c.threads)
		x.Count(&n, len(s.threads), "cluster residence list")
		for i := 0; i < n; i++ {
			var tid int
			if !x.Decoding() {
				tid = c.threads[i].id
			}
			if x.Int(&tid); !x.Decoding() {
				continue
			}
			if x.Err() != nil {
				return x.Err()
			}
			if tid < 0 || tid >= len(s.threads) || seen[tid] {
				return fmt.Errorf("%w: thread id %d in cluster %d residence list", ErrSnapshotCorrupt, tid, ci)
			}
			seen[tid] = true
			lists[ci] = append(lists[ci], tid)
		}
	}
	if !x.Decoding() {
		return nil
	}
	if x.Err() != nil {
		return x.Err()
	}
	for tid, ok := range seen {
		if !ok {
			return fmt.Errorf("%w: residence lists omit thread %d", ErrSnapshotCorrupt, tid)
		}
	}
	for ci, cl := range s.clusters {
		cl.threads = cl.threads[:0]
		for _, tid := range lists[ci] {
			t := s.threads[tid]
			t.cluster = cl
			t.chip = cl.chip
			cl.threads = append(cl.threads, t)
		}
	}
	return nil
}

// xferSampler transfers the metrics configuration, the previous-
// boundary counter snapshot and the frame ring, so a restored run's
// frames continue tiling the cycle axis exactly where the original's
// left off. The OnInterval callback is host state and is not
// serialized; callers re-register after Restore/Fork.
func (s *Simulator) xferSampler(x *xfer) {
	o := s.obs
	if x.Decoding() {
		o = &sampler{prevCluster: make([][stats.NumCategories]float64, len(s.clusters))}
	}
	xi(x, &o.interval)
	xi(x, &o.nextAt)
	xi(x, &o.index)
	xi(x, &o.prevCycle)
	xi(x, &o.prevCommitted)
	x.F64(&o.prevRunningAccum)
	snap.Each(o.prevSlots[:], x.F64)
	for i := range o.prevCluster {
		snap.Each(o.prevCluster[i][:], x.F64)
	}
	o.prevMem.XferSnap(&x.Xfer)
	var ringCap int
	if !x.Decoding() {
		ringCap = o.ring.Cap()
	}
	if x.Int(&ringCap); x.Decoding() {
		if x.Err() != nil {
			return
		}
		if o.interval <= 0 || ringCap <= 0 || ringCap > maxSnapshotRingCap {
			x.corrupt("sampler interval %d, ring capacity %d", o.interval, ringCap)
			return
		}
		o.ring = obs.NewRing(ringCap)
		s.obs = o
	}
	o.ring.XferSnap(&x.Xfer, len(s.clusters))
}

// ---- cluster section ----

// xferSnap transfers one cluster; decoding overlays a freshly built
// cluster of the same configuration. p supplies the static code the
// entries' instruction words are re-derived from; nthreads bounds entry
// thread ids. Reads are range-checked as they go; audit then vets the
// structure as a whole.
func (c *cluster) xferSnap(x *xfer, p *prog.Program, nthreads int) error {
	// Scalars and fixed-size structures first.
	xi(x, &c.seq)
	xi(x, &c.renameIntFree)
	xi(x, &c.renameFPFree)
	for _, us := range [][]int64{c.intUnits, c.ldstUnits, c.fpUnits, c.minFree[:]} {
		for i := range us {
			xi(x, &us[i])
		}
	}
	xi(x, &c.waitMemN)
	xi(x, &c.waitDataN)
	x.Bool(&c.icount)
	xi(x, &c.fetchRR)
	xi(x, &c.commitRR)
	x.slots(&c.slots)
	xi(x, &c.renameStalls)
	xi(x, &c.windowFullStalls)
	xi(x, &c.pcHighWater)
	for i := range c.bp.counters { // the big tables loop in place: Each costs a closure call an element
		x.U8(&c.bp.counters[i])
	}
	xi(x, &c.bp.Lookups)
	xi(x, &c.bp.Mispred)
	c.xferBTB(x)
	xi(x, &c.btb.Lookups)
	xi(x, &c.btb.Mispred)
	if n := len(c.threads); c.fetchRR < 0 || (n > 0 && c.fetchRR >= n) {
		x.corrupt("fetch round-robin %d out of range", c.fetchRR)
	}

	// The entry pool, slot by slot in handle order (free slots included:
	// their stale contents are what a ref to them reads), then the free
	// stack. The in-flight slots are the threads' fifos, written below.
	for i := 1; i < len(c.pool); i++ {
		e := &c.pool[i]
		xi(x, &e.d.Seq)
		xi(x, &e.d.PC)
		xi(x, &e.d.Addr)
		x.Bool(&e.d.Taken)
		xi(x, &e.d.Target)
		xi(x, &e.tid)
		xi(x, &e.seq)
		xi(x, &e.state)
		xi(x, &e.eligibleAt)
		xi(x, &e.completeAt)
		xi(x, &e.fuCl)
		xi(x, &e.lat)
		xi(x, &e.occ)
		x.Bool(&e.isLoad)
		x.Bool(&e.isStore)
		x.Bool(&e.usesIntRename)
		x.Bool(&e.usesFPRename)
		x.Bool(&e.committed)
		xi(x, &e.queued)
		x.Bool(&e.waitMem)
		xi(x, &e.nwait)
		xi(x, &e.nwaitLd)
		xi(x, &e.readyAt)
		xi(x, &e.memUntil)
		x.ref(&e.producers[0])
		x.ref(&e.producers[1])
		x.ref(&e.fwdStore)
		x.handle(&e.firstCons)
		x.handle(&e.consNext[0])
		x.handle(&e.consNext[1])
		if !x.Decoding() {
			continue
		}
		switch {
		case x.Err() != nil:
			return x.Err()
		case e.d.PC < 0 || e.d.PC >= int64(len(p.Code)):
			x.corrupt("entry PC %d outside program", e.d.PC)
		case e.tid < 0 || int(e.tid) >= nthreads:
			x.corrupt("entry thread id %d", e.tid)
		case e.state > stateIssued || e.fuCl > isa.ClassFP || e.queued > qReady:
			x.corrupt("entry enums: state %d, unit class %d, queue state %d", e.state, e.fuCl, e.queued)
		}
	}
	x.handles(&c.free, "free stack")

	// Per-thread front-end state.
	for _, t := range c.threads {
		xi(x, &t.block)
		x.Bool(&t.lockGranted)
		x.Bool(&t.barArrived)
		xi(x, &t.barTarget)
		xi(x, &t.frontEvent)
		xi(x, &t.fetched)
		xi(x, &t.committed)
		if t.block > blockMigrate {
			x.corrupt("thread block state %d", t.block)
		}
		x.ref(&t.pendingBranch)
		for i := range t.lastWriterInt {
			x.ref(&t.lastWriterInt[i])
		}
		for i := range t.lastWriterFP {
			x.ref(&t.lastWriterFP[i])
		}
		x.ring(&t.fifo, "thread fifo")
		if t.fn.XferSnap(&x.Xfer); x.Err() != nil {
			return x.Err()
		}
	}

	// The store table's occupied slots, each with its index, and the
	// wakeup structures; the wheel is its heap array as it stands.
	st := &c.stores
	x.Count(&st.live, len(st.slots)/2, "store table")
	slot := func(i *int, sl *storeSlot) {
		xi(x, i)
		xi(x, &sl.addr)
		xi(x, &sl.tid)
		x.handle(&sl.h)
	}
	if !x.Decoding() {
		for i := range st.slots {
			if st.slots[i].h != 0 {
				slot(&i, &st.slots[i])
			}
		}
	}
	for n := st.live; x.Decoding() && n > 0; n-- {
		var i int
		var sl storeSlot
		if slot(&i, &sl); i < 0 || i >= len(st.slots) || st.slots[i].h != 0 || sl.h == 0 {
			x.corrupt("store table slot %d", i)
			break
		}
		st.slots[i] = sl
	}
	x.ring(&c.pending, "pending ring")
	x.handles(&c.ready, "ready list")
	snap.Slice(&x.Xfer, &c.wheel.ev, cap(c.wheel.ev), "wakeup wheel", func(ev *wheelEvent) {
		xi(x, &ev.cycle)
		x.handle(&ev.h)
	})
	if !x.Decoding() || x.Err() != nil {
		return x.Err()
	}
	if err := c.audit(); err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return nil
}

// xferBTB transfers the BTB's tables: a presence byte and, only when
// they exist, every target then every valid bit. Decoding accepts a
// presence byte of 0 or 1 alone and allocates the tables at the
// machine's own size, never at one from the payload.
func (c *cluster) xferBTB(x *xfer) {
	var present uint8
	if c.btb.targets != nil {
		present = 1
	}
	if x.U8(&present); present > 1 {
		x.corrupt("BTB presence byte %d", present)
		return
	}
	if present == 0 {
		return
	}
	if x.Decoding() {
		c.btb.alloc()
	}
	for i := range c.btb.targets { // the big tables loop in place, as the predictor's
		xi(x, &c.btb.targets[i])
	}
	for i := range c.btb.valid {
		x.Bool(&c.btb.valid[i])
	}
}

// audit checks the structural invariants every between-cycles cluster
// state satisfies, returning the first violation. It is what stands
// between a crafted checkpoint and a runtime panic — the fixed-capacity
// structures cannot overflow from a state that passes — and the entry
// pool's leak check (TestEntryPoolConservation runs it mid-run): the
// free stack and the threads' fifos partition the pool, no slot held
// twice; every structure names only in-flight entries of the right
// kind; the waiting tallies agree with what the fifos hold.
func (c *cluster) audit() error {
	n := len(c.pool) - 1
	const (
		isFree uint8 = 1 << iota
		inFifo
		inQueue // pending ring or ready list
	)
	mark := make([]uint8, n+1)
	bad := func(format string, args ...any) error {
		return fmt.Errorf("chip %d cluster %d: %s", c.chip, c.idx, fmt.Sprintf(format, args...))
	}
	// claim marks slot h with bit; the slot must carry the need bits and
	// be neither free nor already claimed for bit.
	claim := func(h handle, need, bit uint8, what string) error {
		if h == 0 || int(h) > n || mark[h]&need != need || mark[h]&(isFree|bit) != 0 {
			return bad("%s holds slot %d, which is free, repeated or out of place", what, h)
		}
		mark[h] |= bit
		return nil
	}
	for _, h := range c.free {
		if err := claim(h, 0, isFree, "free stack"); err != nil {
			return err
		}
	}
	inFlight, waitMem, waitData := 0, 0, 0
	for _, t := range c.threads {
		for i := 0; i < t.fifo.len(); i++ {
			h := t.fifo.at(i)
			if err := claim(h, 0, inFifo, "thread fifo"); err != nil {
				return err
			}
			e := &c.pool[h]
			if e.committed || int(e.tid) != t.id || e.seq >= c.seq || (i > 0 && e.seq <= c.pool[t.fifo.at(i-1)].seq) {
				return bad("thread %d fifo holds slot %d (thread %d, seq %d, committed %v) out of order", t.id, h, e.tid, e.seq, e.committed)
			}
			if e.state == stateDispatched && e.queued == qWaiting {
				if e.waitMem {
					waitMem++
				} else {
					waitData++
				}
			}
		}
		inFlight += t.fifo.len()
	}
	if len(c.free)+inFlight != n {
		return bad("%d free + %d in flight != %d slots", len(c.free), inFlight, n)
	}
	if waitMem != c.waitMemN || waitData != c.waitDataN {
		return bad("fifos hold %d+%d waiting; counters say %d+%d", waitMem, waitData, c.waitMemN, c.waitDataN)
	}
	for i := 0; i < c.pending.len()+len(c.ready); i++ {
		h, want, what := handle(0), qNone, "pending ring"
		if i < c.pending.len() {
			h = c.pending.at(i)
		} else {
			h, want, what = c.ready[i-c.pending.len()], qReady, "ready list"
		}
		if err := claim(h, inFifo, inQueue, what); err != nil {
			return err
		}
		if e := &c.pool[h]; e.state != stateDispatched || e.queued != want {
			return bad("%s holds slot %d (state %d, queued %d)", what, h, e.state, e.queued)
		}
	}
	// Consumer lists hang off in-flight producers and hold dispatched
	// consumers whose producer slot names the list's owner.
	for _, t := range c.threads {
		for i := 0; i < t.fifo.len(); i++ {
			xh := t.fifo.at(i)
			xr := c.refOf(xh)
			steps := 0
			for cur := c.pool[xh].firstCons; cur != 0; steps++ {
				ce := &c.pool[cur]
				k := 1
				if ce.producers[0] == xr {
					k = 0
				}
				if steps == n || mark[cur]&inFifo == 0 || ce.state != stateDispatched || ce.producers[k] != xr {
					return bad("consumer list of slot %d reaches slot %d", xh, cur)
				}
				cur = ce.consNext[k]
			}
		}
	}
	// A wheel event names a waiting entry, one at most each, at its
	// next transition: the cycle its last load completes, with no load
	// left unissued, or its ready cycle, with every producer issued.
	events := make([]bool, n+1)
	for i, ev := range c.wheel.ev {
		h, e := ev.h, &c.pool[ev.h]
		if h == 0 || mark[h]&inFifo == 0 || events[h] || (i > 0 && c.wheel.ev[(i-1)/2].cycle > ev.cycle) ||
			e.state != stateDispatched || e.queued != qWaiting ||
			!(e.nwaitLd == 0 && ev.cycle == e.memUntil || e.nwait == 0 && ev.cycle == e.readyAt) {
			return bad("wheel event %d (cycle %d, slot %d)", i, ev.cycle, h)
		}
		events[h] = true
	}
	live := 0
	for i, sl := range c.stores.slots {
		if sl.h == 0 {
			continue
		}
		live++
		if e := &c.pool[sl.h]; mark[sl.h]&inFifo == 0 || !e.isStore || e.tid != sl.tid || e.d.Addr != sl.addr || c.stores.find(sl.tid, sl.addr) != i {
			return bad("store table slot %d (thread %d addr %d slot %d)", i, sl.tid, sl.addr, sl.h)
		}
	}
	if live != c.stores.live || live > len(c.stores.slots)/2 {
		return bad("store table holds %d, counter says %d", live, c.stores.live)
	}
	return nil
}
