package parallel

import (
	"testing"
	"testing/quick"

	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

func TestLockBasics(t *testing.T) {
	s := NewSync(2)
	if !s.TryLock(1, 0) {
		t.Fatal("first acquire failed")
	}
	if s.TryLock(1, 1) {
		t.Fatal("second acquire should fail")
	}
	if s.LockOwner(1) != 0 {
		t.Fatalf("owner = %d", s.LockOwner(1))
	}
	s.Unlock(1, 0)
	if !s.TryLock(1, 1) {
		t.Fatal("acquire after release failed")
	}
	if s.LockAcquires != 2 || s.LockConflicts != 1 {
		t.Fatalf("stats: acquires=%d conflicts=%d", s.LockAcquires, s.LockConflicts)
	}
}

func TestUnlockNotOwnerPanics(t *testing.T) {
	s := NewSync(2)
	s.TryLock(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s.Unlock(1, 1)
}

func TestRecursiveLockPanics(t *testing.T) {
	s := NewSync(2)
	s.TryLock(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s.TryLock(1, 0)
}

func TestBarrierTripsAtN(t *testing.T) {
	s := NewSync(3)
	g0 := s.Arrive(7)
	if s.Released(7, g0) {
		t.Fatal("released after 1/3 arrivals")
	}
	g1 := s.Arrive(7)
	if g1 != g0 {
		t.Fatalf("generations differ: %d vs %d", g0, g1)
	}
	if s.Released(7, g1) {
		t.Fatal("released after 2/3 arrivals")
	}
	s.Arrive(7)
	if !s.Released(7, g0) {
		t.Fatal("not released after 3/3 arrivals")
	}
	if s.Waiting(7) != 0 {
		t.Fatal("barrier did not reset")
	}
}

func TestBarrierGenerations(t *testing.T) {
	s := NewSync(2)
	g := s.Arrive(1)
	s.Arrive(1)
	if !s.Released(1, g) {
		t.Fatal("gen 1 not released")
	}
	g2 := s.Arrive(1)
	if g2 != g+1 {
		t.Fatalf("second generation = %d, want %d", g2, g+1)
	}
	if s.Released(1, g2) {
		t.Fatal("gen 2 released early")
	}
	s.Arrive(1)
	if !s.Released(1, g2) {
		t.Fatal("gen 2 not released")
	}
}

// Property: for any sequence of balanced lock/unlock pairs the
// controller ends with no held locks, and a lock is never granted to
// two holders at once.
func TestLockExclusionProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewSync(4)
		held := map[int64]int{}
		for _, op := range ops {
			tid := int(op>>4) % 4
			id := int64(op & 7)
			if owner, ok := held[id]; ok {
				// Some thread holds it; a different thread must fail.
				other := (owner + 1) % 4
				if s.TryLock(id, other) {
					return false
				}
				s.Unlock(id, owner)
				delete(held, id)
			} else {
				if !s.TryLock(id, tid) {
					return false
				}
				held[id] = tid
			}
		}
		for id, owner := range held {
			s.Unlock(id, owner)
		}
		return s.HeldLocks() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func buildParallelSum(nwords int64) *prog.Program {
	// Each thread adds its chunk of data[] into a per-thread slot of
	// partial[]; after a barrier, thread 0 reduces into out[0].
	b := prog.NewBuilder("psum")
	b.Global("n", 1)
	data := b.Global("data", nwords)
	b.Global("partial", 64)
	b.Global("out", 1)

	// r1=tid r2=nthreads r3=lo r4=hi r5=acc r6=addr r7=tmp
	b.Mov(1, isa.RegTID)
	b.Ld(2, 0, b.MustAddr("n"))
	b.Li(5, 0)
	// lo = tid*nwords/nthreads ; hi = (tid+1)*nwords/nthreads
	b.Li(7, nwords)
	b.Mul(3, 1, 7)
	b.Div(3, 3, 2)
	b.Addi(4, 1, 1)
	b.Mul(4, 4, 7)
	b.Div(4, 4, 2)
	b.CountedLoop(3, 4, func() {
		b.Shli(6, 3, 3)
		b.Addi(6, 6, data)
		b.Ld(7, 6, 0)
		b.Add(5, 5, 7)
	})
	// partial[tid] = acc
	b.Shli(6, 1, 3)
	b.St(5, 6, b.MustAddr("partial"))
	b.Barrier(0)
	b.IfThread0(func() {
		b.Li(5, 0)
		b.Li(3, 0)
		b.CountedLoop(3, 2, func() {
			b.Shli(6, 3, 3)
			b.Ld(7, 6, b.MustAddr("partial"))
			b.Add(5, 5, 7)
		})
		b.St(5, 0, b.MustAddr("out"))
	})
	b.Halt()
	return b.MustBuild()
}

func TestRunFunctionalParallelSum(t *testing.T) {
	const n = 64
	for _, threads := range []int{1, 2, 4, 8} {
		p := buildParallelSum(n)
		// Install n and the data values via init image by rebuilding
		// with GlobalWords is cleaner, but here we poke them through a
		// fresh image: the program already reserves the space, so we
		// use Init.
		p.Init.Set(p.SymbolAddr("n"), uint64(threads))
		var want uint64
		for i := int64(0); i < n; i++ {
			p.Init.Set(p.SymbolAddr("data")+i*prog.WordSize, uint64(i*3))
			want += uint64(i * 3)
		}
		res, err := RunFunctional(p, threads, 0)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if got := res.ReadWord(p, "out", 0); got != want {
			t.Errorf("threads=%d: out = %d, want %d", threads, got, want)
		}
	}
}

func TestRunFunctionalLockedIncrements(t *testing.T) {
	// Every thread increments a shared counter k times under a lock.
	const k = 10
	b := prog.NewBuilder("lockinc")
	cnt := b.Global("cnt", 1)
	b.Li(1, 0)
	b.Li(2, k)
	b.CountedLoop(1, 2, func() {
		b.Lock(3)
		b.Ld(4, 0, cnt)
		b.Addi(4, 4, 1)
		b.St(4, 0, cnt)
		b.Unlock(3)
	})
	b.Halt()
	p := b.MustBuild()
	for _, threads := range []int{1, 3, 8} {
		res, err := RunFunctional(p, threads, 0)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if got := res.ReadWord(p, "cnt", 0); got != uint64(k*threads) {
			t.Errorf("threads=%d: cnt = %d, want %d", threads, got, k*threads)
		}
		if res.Sync.LockAcquires != uint64(k*threads) {
			t.Errorf("threads=%d: acquires = %d", threads, res.Sync.LockAcquires)
		}
	}
}

func TestRunFunctionalDeadlockDetected(t *testing.T) {
	// Thread 0 takes lock 1 and waits at a barrier that thread 1 can
	// only reach after taking lock 1: deadlock.
	b := prog.NewBuilder("dead")
	b.IfThread0(func() {
		b.Lock(1)
		b.Barrier(0)
		b.Unlock(1)
	})
	b.Bne(isa.RegTID, isa.RegZero, "t1")
	b.Jump("end")
	b.Label("t1")
	b.Lock(1)
	b.Barrier(0)
	b.Unlock(1)
	b.Label("end")
	b.Halt()
	p := b.MustBuild()
	if _, err := RunFunctional(p, 2, 0); err == nil {
		t.Fatal("deadlock not detected")
	}
}

func TestRunFunctionalStepBudget(t *testing.T) {
	b := prog.NewBuilder("spin")
	b.Label("top")
	b.Jump("top")
	b.Halt()
	p := b.MustBuild()
	if _, err := RunFunctional(p, 1, 1000); err == nil {
		t.Fatal("livelock not detected")
	}
}
