package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"clustersmt/internal/alloc"
	"clustersmt/internal/config"
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// buildImbalanced builds the canonical migration-provoking kernel:
// even-tid threads run a long load-carrying loop while odd-tid threads
// halt after a handful of instructions. Under the seed placement
// (thread tid → chip tid%chips, cluster (tid/chips)%clusters) the
// even tids pack onto half the clusters, so once the odd tids drain
// the machine is exactly the live-count imbalance the dynamic
// policies exist to repair.
func buildImbalanced(threads int, iters int64) *prog.Program {
	b := prog.NewBuilder("imbalanced")
	b.GlobalWords("nthreads", []uint64{uint64(threads)})
	data := b.Global("data", 8)
	b.Mov(1, isa.RegTID)
	b.Andi(2, 1, 1)
	b.Bne(2, isa.RegZero, "done") // odd tids halt immediately
	b.Li(3, 0)
	b.Li(4, iters)
	b.CountedLoop(3, 4, func() {
		b.Andi(5, 3, 7)
		b.Shli(5, 5, 3)
		b.Ld(6, 5, data)
		b.Add(7, 7, 6)
	})
	b.Label("done")
	b.Halt()
	return b.MustBuild()
}

// runAlloc runs one machine over build with the given cycle loop
// (ff=false: the stepped reference loop).
func runAlloc(t *testing.T, m config.Machine, build func() *prog.Program, ff bool) *Result {
	t.Helper()
	s, err := New(m, build())
	if err != nil {
		t.Fatal(err)
	}
	return runSim(t, s, true, ff)
}

// TestAllocDifferential is the seed bit-identity gate for the default
// policy: on every Table 2 preset, low- and high-end, under both the
// stepped and the fast-forward cycle loop, a machine configured with
// Alloc.Policy="static" must produce a Result that is bit-identical
// (reflect.DeepEqual) to the same machine with no Alloc at all. It is
// the proof that bolting the allocation subsystem on changed nothing
// for the paper's configuration. Static runs must also report zero
// epochs and zero migrations.
func TestAllocDifferential(t *testing.T) {
	combos := []struct {
		name string
		ff   bool
	}{
		{"stepped", false},
		{"ff", true},
	}
	for _, arch := range config.AllArchs {
		for _, highEnd := range []bool{false, true} {
			m := config.LowEnd(arch)
			if highEnd {
				m = config.HighEnd(arch)
			}
			t.Run(m.Name, func(t *testing.T) {
				build := func() *prog.Program {
					return buildVectorSum(128, m.Threads())
				}
				ms := m
				ms.Alloc = config.AllocConfig{Policy: "static"}
				// The config layer must collapse an explicit "static" to
				// the zero value, so caches never fork on the spelling.
				if ms.Hash() != m.Hash() {
					t.Fatalf("explicit static policy changed the machine hash")
				}
				for _, c := range combos {
					seed := runAlloc(t, m, build, c.ff)
					static := runAlloc(t, ms, build, c.ff)
					if static.AllocEpochs != 0 || static.AllocMigrations != 0 {
						t.Fatalf("%s: static ran epochs=%d migrations=%d, want 0/0",
							c.name, static.AllocEpochs, static.AllocMigrations)
					}
					// Result.Machine carries the raw config (which spells
					// the policy out); everything behavioral must match.
					static.Machine = seed.Machine
					if !reflect.DeepEqual(seed, static) {
						t.Fatalf("%s: static policy diverged from seed placement\nseed:   %+v\nstatic: %+v",
							c.name, seed, static)
					}
				}
			})
		}
	}
}

// TestAllocDeterminism re-runs each dynamic policy from scratch and
// requires byte-identical results, with the non-vacuousness guard that
// the run actually migrated threads — a deterministic run that never
// exercises the migration machinery proves nothing.
func TestAllocDeterminism(t *testing.T) {
	for _, pol := range []string{"icount", "symbiosis"} {
		for _, highEnd := range []bool{false, true} {
			m := config.LowEnd(config.SMT2)
			if highEnd {
				m = config.HighEnd(config.SMT2)
			}
			m.Alloc = config.AllocConfig{Policy: pol, Epoch: 500}
			t.Run(pol+"/"+m.Name, func(t *testing.T) {
				build := func() *prog.Program {
					return buildImbalanced(m.Threads(), 2000)
				}
				a := runAlloc(t, m, build, true)
				b := runAlloc(t, m, build, true)
				if a.AllocMigrations == 0 {
					t.Fatalf("no migrations; the determinism check is vacuous")
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("two runs diverged\nfirst:  %+v\nsecond: %+v", a, b)
				}
			})
		}
	}
}

// TestAllocEventDrivenDifferential extends the event-layer contract to
// dynamic policies: with migrations in flight, every {scan, wakeup} ×
// {stepped, fast-forward} combination must match the scan × stepped
// reference — in particular the fast-forward must clamp its jumps to
// epoch boundaries rather than sailing past a scheduled rebalance.
func TestAllocEventDrivenDifferential(t *testing.T) {
	for _, pol := range []string{"icount", "symbiosis"} {
		for _, highEnd := range []bool{false, true} {
			m := config.LowEnd(config.SMT2)
			if highEnd {
				m = config.HighEnd(config.SMT2)
			}
			m.Alloc = config.AllocConfig{Policy: pol, Epoch: 500}
			t.Run(pol+"/"+m.Name, func(t *testing.T) {
				build := func() *prog.Program {
					return buildImbalanced(m.Threads(), 2000)
				}
				ref, _ := runMode(t, m, build, false, false)
				if ref.AllocMigrations == 0 {
					t.Fatalf("no migrations; the differential is vacuous")
				}
				for _, mode := range diffModes {
					got, _ := runMode(t, m, build, mode.eventIssue, mode.ff)
					if !reflect.DeepEqual(ref, got) {
						t.Fatalf("%s diverged from scan+stepped\nref: %+v\ngot: %+v", mode.name, ref, got)
					}
				}
			})
		}
	}
}

// chaosPolicy proposes only invalid migrations: dead threads, bogus
// thread and cluster ids, self-moves, and over-capacity floods. The
// core must drop every one of them deterministically, leaving the run
// bit-identical to no allocator at all.
type chaosPolicy struct{}

func (chaosPolicy) Name() string { return "chaos-test" }
func (chaosPolicy) Place(threads int, clusters []alloc.ClusterInfo) []int {
	return alloc.StaticPlace(threads, clusters)
}
func (chaosPolicy) Dynamic() bool { return true }

func (chaosPolicy) Rebalance(s *alloc.Snapshot) []alloc.Migration {
	ms := []alloc.Migration{
		{Thread: -1, To: 0},                 // no such thread
		{Thread: len(s.Threads) + 7, To: 0}, // no such thread
		{Thread: 0, To: -1},                 // no such cluster
		{Thread: 0, To: len(s.Clusters)},    // no such cluster
	}
	for _, th := range s.Threads {
		if th.Finished { // dead threads must never move
			ms = append(ms, alloc.Migration{Thread: th.ID, To: (th.Cluster + 1) % len(s.Clusters)})
		}
		ms = append(ms, alloc.Migration{Thread: th.ID, To: th.Cluster}) // self-move
	}
	// Flood cluster 0: everything past its spare capacity must bounce
	// off the migrateIn-charged capacity check.
	for _, th := range s.Threads {
		if th.Cluster != s.Clusters[0].GID {
			ms = append(ms, alloc.Migration{Thread: th.ID, To: s.Clusters[0].GID})
		}
	}
	return ms
}

// invariantErrs collects violations observed by checkPolicy mid-run.
var invariantErrs []string

// checkPolicy wraps ICount and audits every epoch snapshot the core
// hands a policy: each live thread on exactly one valid cluster, per-
// cluster live counts within capacity and consistent with the per-
// thread view.
type checkPolicy struct{ inner alloc.ICount }

func (checkPolicy) Name() string { return "invcheck-test" }
func (p checkPolicy) Place(threads int, clusters []alloc.ClusterInfo) []int {
	return p.inner.Place(threads, clusters)
}
func (checkPolicy) Dynamic() bool { return true }

func (p checkPolicy) Rebalance(s *alloc.Snapshot) []alloc.Migration {
	live := make(map[int]int) // cluster GID -> live threads per the thread view
	valid := make(map[int]alloc.ClusterSample, len(s.Clusters))
	for _, c := range s.Clusters {
		valid[c.GID] = c
	}
	for _, th := range s.Threads {
		c, ok := valid[th.Cluster]
		if !ok {
			invariantErrs = append(invariantErrs,
				fmt.Sprintf("epoch %d: thread %d on unknown cluster %d", s.Epoch, th.ID, th.Cluster))
			continue
		}
		if !th.Finished {
			live[th.Cluster]++
			if live[th.Cluster] > c.Capacity {
				invariantErrs = append(invariantErrs,
					fmt.Sprintf("epoch %d: cluster %d over capacity %d", s.Epoch, th.Cluster, c.Capacity))
			}
		}
	}
	for _, c := range s.Clusters {
		if c.Threads != live[c.GID] {
			invariantErrs = append(invariantErrs,
				fmt.Sprintf("epoch %d: cluster %d reports %d live threads, thread view says %d",
					s.Epoch, c.GID, c.Threads, live[c.GID]))
		}
	}
	return p.inner.Rebalance(s)
}

func init() {
	alloc.Register("chaos-test", "test-only: proposes only invalid migrations", func() alloc.Allocator { return chaosPolicy{} })
	alloc.Register("invcheck-test", "test-only: icount plus epoch-snapshot invariant auditing", func() alloc.Allocator { return checkPolicy{} })
}

// TestAllocInvalidProposalsRejected runs the chaos policy — nothing it
// proposes is legal — and requires the result to be bit-identical to
// the no-allocator reference (modulo the epoch counter, which must
// have ticked for the test to mean anything).
func TestAllocInvalidProposalsRejected(t *testing.T) {
	m := config.LowEnd(config.SMT2)
	build := func() *prog.Program {
		return buildImbalanced(m.Threads(), 2000)
	}
	ref := runAlloc(t, m, build, false)
	mc := m
	mc.Alloc = config.AllocConfig{Policy: "chaos-test", Epoch: 500}
	got := runAlloc(t, mc, build, false)
	if got.AllocEpochs == 0 {
		t.Fatalf("chaos policy never consulted; the rejection check is vacuous")
	}
	if got.AllocMigrations != 0 {
		t.Fatalf("core accepted %d invalid migrations", got.AllocMigrations)
	}
	norm := *got
	norm.AllocEpochs = 0
	norm.Machine = ref.Machine
	if !reflect.DeepEqual(ref, &norm) {
		t.Fatalf("rejected proposals still perturbed the run\nref: %+v\ngot: %+v", ref, got)
	}
}

// checkResidence audits the committed machine state between cycles:
// every thread resides on exactly one cluster, its back-pointer agrees
// with the hosting cluster, live threads never exceed a cluster's
// hardware contexts (counting in-flight migrations), migrateIn never
// goes negative, and every cluster's entry pool passes its structural
// audit (migration moves a thread's fifo and last-writer refs between
// pools).
func checkResidence(t *testing.T, s *Simulator) {
	t.Helper()
	auditPools(t, s)
	seen := make(map[int]int, len(s.threads))
	for _, cl := range s.clusters {
		if cl.migrateIn < 0 {
			t.Errorf("cycle %d: cluster %d migrateIn=%d", s.cycle, cl.gid, cl.migrateIn)
		}
		live := 0
		for _, th := range cl.threads {
			if th.cluster != cl {
				t.Errorf("cycle %d: thread %d listed on cluster %d but points at %d",
					s.cycle, th.id, cl.gid, th.cluster.gid)
			}
			seen[th.id]++
			if !th.done() {
				live++
			}
		}
		if live+cl.migrateIn > cl.cfg.ThreadsPerCluster {
			t.Errorf("cycle %d: cluster %d holds %d live threads (+%d inbound), capacity %d",
				s.cycle, cl.gid, live, cl.migrateIn, cl.cfg.ThreadsPerCluster)
		}
	}
	for _, th := range s.threads {
		if seen[th.id] != 1 {
			t.Errorf("cycle %d: thread %d resides on %d clusters, want exactly 1", s.cycle, th.id, seen[th.id])
		}
	}
}

// TestAllocResidenceInvariants steps a migrating run in small RunTo
// increments and audits residence at every pause, while the invcheck
// policy independently audits the snapshot the core builds at every
// epoch boundary. Together they pin the "always" in "every runnable
// thread is always on exactly one cluster".
func TestAllocResidenceInvariants(t *testing.T) {
	invariantErrs = nil
	m := config.HighEnd(config.SMT2)
	m.Alloc = config.AllocConfig{Policy: "invcheck-test", Epoch: 500}
	sim, err := New(m, buildImbalanced(m.Threads(), 2000))
	if err != nil {
		t.Fatal(err)
	}
	for target := int64(100); !sim.Done(); target += 100 {
		if err := sim.RunTo(target); err != nil {
			t.Fatal(err)
		}
		checkResidence(t, sim)
	}
	for _, e := range invariantErrs {
		t.Error(e)
	}
	if sim.alloc.migrations == 0 {
		t.Fatalf("no migrations; the invariant sweep is vacuous")
	}
}

// TestAllocSnapshotRoundTrip proves allocator state is part of the
// checkpoint contract: pause a migrating icount run, snapshot it
// (retrying past the mid-drain refusal windows), restore into a fresh
// simulator, and require the restored allocState and the final Results
// of both runs to be bit-identical — with more epochs firing after the
// snapshot point, so the restored allocator demonstrably keeps working.
func TestAllocSnapshotRoundTrip(t *testing.T) {
	m := config.LowEnd(config.SMT2)
	m.Alloc = config.AllocConfig{Policy: "icount", Epoch: 400}
	p := buildImbalanced(m.Threads(), 4000)
	sim, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	for target := int64(450); ; target += 25 {
		if err := sim.RunTo(target); err != nil {
			t.Fatal(err)
		}
		if sim.Done() {
			t.Fatal("run finished before a snapshot succeeded")
		}
		data, err = sim.Snapshot()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrSnapshotUnsupported) {
			t.Fatal(err)
		}
	}
	preEpochs := sim.alloc.epoch
	restored, err := Restore(m, p, data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sim.alloc, restored.alloc) {
		t.Fatalf("allocator state lost in round trip\norig:     %+v\nrestored: %+v", sim.alloc, restored.alloc)
	}
	orig, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	rest, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	if orig.AllocMigrations == 0 {
		t.Fatalf("no migrations; the round trip is vacuous")
	}
	if orig.AllocEpochs <= preEpochs {
		t.Fatalf("no epochs fired after the snapshot (pre=%d final=%d); restore untested", preEpochs, orig.AllocEpochs)
	}
	if !reflect.DeepEqual(orig, rest) {
		t.Fatalf("restored run diverged\norig:     %+v\nrestored: %+v", orig, rest)
	}
}

// TestAllocSearchStatic pins the oracle machinery: SearchStatic is
// deterministic across invocations, its assignments are legal, and
// SetAssignment enforces its fresh-simulator and validity contracts.
func TestAllocSearchStatic(t *testing.T) {
	m := config.LowEnd(config.SMT2)
	mk := func() (*Simulator, error) {
		progs := make([]*prog.Program, 4)
		for i := range progs {
			progs[i] = buildVectorSum(64, 1)
		}
		return NewMulti(m, progs)
	}
	best1, worst1, err := SearchStatic(mk, 2_000, 16)
	if err != nil {
		t.Fatal(err)
	}
	best2, worst2, err := SearchStatic(mk, 2_000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(best1, best2) || !reflect.DeepEqual(worst1, worst2) {
		t.Fatalf("SearchStatic not deterministic: best %v vs %v, worst %v vs %v", best1, best2, worst1, worst2)
	}

	sim, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetAssignment(best1); err != nil {
		t.Fatal(err)
	}
	if got := sim.Assignment(); !reflect.DeepEqual(got, best1) {
		t.Fatalf("Assignment() = %v after SetAssignment(%v)", got, best1)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	sim2, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim2.SetAssignment([]int{0}); err == nil {
		t.Fatal("SetAssignment accepted a wrong-length assignment")
	}
	over := []int{0, 0, 0, 0}    // SMT2 low-end clusters hold 4 contexts; 4 single-thread jobs fit...
	over[3] = len(sim2.clusters) // ...but an out-of-range GID must not
	if err := sim2.SetAssignment(over); err == nil {
		t.Fatal("SetAssignment accepted an out-of-range cluster")
	}
	if err := sim2.RunTo(10); err != nil {
		t.Fatal(err)
	}
	if err := sim2.SetAssignment([]int{0, 0, 1, 1}); err == nil {
		t.Fatal("SetAssignment accepted a started simulator")
	}
}
