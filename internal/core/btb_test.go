package core

import (
	"bytes"
	"reflect"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/isa"
	"clustersmt/internal/prog"
)

// buildCalls builds a program whose threads call subroutines with jal
// and return through jr, so every return is an indirect jump through
// the BTB. One subroutine is called from two sites in turn, so its
// return target keeps changing and the BTB misses; the other from one,
// so it hits once trained.
func buildCalls(iters int64) *prog.Program {
	const (
		rI   isa.Reg = 1
		rN   isa.Reg = 2
		rAcc isa.Reg = 3
		rT   isa.Reg = 4
		rRet isa.Reg = 20
	)
	b := prog.NewBuilder("calls")
	out := b.Global("out", 64)
	b.Li(rI, 0)
	b.Li(rN, iters)
	b.Li(rAcc, 0)
	b.Jump("main")
	b.Label("twice")
	b.Add(rAcc, rAcc, rI)
	b.Jr(rRet)
	b.Label("once")
	b.Addi(rAcc, rAcc, 3)
	b.Jr(rRet)
	b.Label("main")
	b.CountedLoop(rI, rN, func() {
		b.Jal(rRet, "twice")
		b.Jal(rRet, "once")
		b.Jal(rRet, "twice")
	})
	b.Shli(rT, isa.RegTID, 3)
	b.St(rAcc, rT, out)
	b.Halt()
	return b.MustBuild()
}

// btbMachines are the shapes the BTB tests run on: one wide cluster,
// several narrow ones, and four chips.
var btbMachines = []config.Machine{config.LowEnd(config.SMT2), config.LowEnd(config.FA8), config.HighEnd(config.FA4)}

// TestBTBLazyMatchesEager runs a jal/jr program end to end with the BTB
// tables allocated on the first indirect jump and, as the reference,
// allocated up front in every cluster: the Result, its BTB lookups and
// mispredictions included, must be the same. A fresh simulator holds no
// table, and after the run only clusters that jumped indirectly do.
func TestBTBLazyMatchesEager(t *testing.T) {
	for _, m := range btbMachines {
		run := func(eager bool) (*Simulator, *Result) {
			s, err := New(m, buildCalls(40))
			if err != nil {
				t.Fatal(err)
			}
			for _, cl := range s.clusters {
				if cl.btb.targets != nil {
					t.Fatalf("%s: a fresh cluster holds BTB tables", m.Arch.Name)
				}
				if eager {
					cl.btb.alloc()
				}
			}
			r, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			return s, r
		}
		lazySim, lazy := run(false)
		_, eager := run(true)
		if !reflect.DeepEqual(lazy, eager) {
			t.Fatalf("%s: lazy BTB result differs from eager:\nlazy  %+v\neager %+v", m.Arch.Name, lazy, eager)
		}
		if lazy.BTBLookups == 0 || lazy.BTBMispredicts == 0 || lazy.BTBMispredicts >= lazy.BTBLookups {
			t.Fatalf("%s: BTB lookups %d, mispredictions %d: want both, and some hits", m.Arch.Name, lazy.BTBLookups, lazy.BTBMispredicts)
		}
		for i, cl := range lazySim.clusters {
			if (cl.btb.targets != nil) != (cl.btb.Lookups > 0) {
				t.Errorf("%s: cluster %d has tables %v after %d lookups", m.Arch.Name, i, cl.btb.targets != nil, cl.btb.Lookups)
			}
		}
	}
}

// TestBTBSnapshotRoundTrip checkpoints the jal/jr program before any
// indirect jump (no cluster holds BTB tables) and after some (some do).
// Either way Restore→Snapshot reproduces the bytes, the restored
// clusters hold tables exactly where the originals did, and running on
// gives the from-scratch Result.
func TestBTBSnapshotRoundTrip(t *testing.T) {
	for _, m := range btbMachines {
		scratch, err := New(m, buildCalls(40))
		if err != nil {
			t.Fatal(err)
		}
		want, err := scratch.Run()
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(m, buildCalls(40))
		if err != nil {
			t.Fatal(err)
		}
		for _, present := range []bool{false, true} {
			if present {
				for cycle := int64(20); !s.clusters[0].hasBTB(); cycle += 20 {
					if err := s.RunTo(cycle); err != nil {
						t.Fatal(err)
					}
				}
			}
			data, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r, err := Restore(m, buildCalls(40), data)
			if err != nil {
				t.Fatalf("%s (tables %v): %v", m.Arch.Name, present, err)
			}
			for i, cl := range r.clusters {
				if cl.hasBTB() != s.clusters[i].hasBTB() || cl.hasBTB() && !reflect.DeepEqual(cl.btb, s.clusters[i].btb) {
					t.Fatalf("%s (tables %v): cluster %d BTB not restored as it was", m.Arch.Name, present, i)
				}
			}
			if again, err := r.Snapshot(); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("%s (tables %v): Restore→Snapshot not byte-identical (%v)", m.Arch.Name, present, err)
			}
			got, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s (tables %v): restored run differs from scratch:\nwant %+v\ngot  %+v", m.Arch.Name, present, want, got)
			}
		}
	}
}

func (c *cluster) hasBTB() bool { return c.btb.targets != nil }
