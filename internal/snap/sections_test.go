package snap_test

import (
	"bytes"
	"errors"
	"testing"

	"clustersmt/internal/coherence"
	"clustersmt/internal/config"
	"clustersmt/internal/interconnect"
	"clustersmt/internal/interp"
	"clustersmt/internal/obs"
	"clustersmt/internal/parallel"
	"clustersmt/internal/prog"
	"clustersmt/internal/snap"
)

// section is the one signature every snapshot section has.
type section interface{ XferSnap(*snap.Xfer) }

func encode(s section) []byte {
	w := snap.NewWriter()
	s.XferSnap(w.Xfer())
	return w.Bytes()
}

// checkSection holds one section to the codec contract: a decode of its
// encoding into a fresh twin consumes every byte and re-encodes to the
// same bytes, and a decode of every proper prefix latches ErrTruncated
// without panicking.
func checkSection(t *testing.T, name string, populated section, fresh func() section) {
	t.Helper()
	enc := encode(populated)
	if bytes.Equal(enc, encode(fresh())) {
		t.Fatalf("%s: the populated section encodes like a fresh one; the fixture exercises nothing", name)
	}
	back, r := fresh(), snap.NewReader(enc)
	if back.XferSnap(r.Xfer()); r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("%s: decode: err %v, %d of %d bytes left", name, r.Err(), r.Remaining(), len(enc))
	}
	if !bytes.Equal(encode(back), enc) {
		t.Fatalf("%s: decode→encode changed the bytes", name)
	}
	for n := 0; n < len(enc); n++ {
		r := snap.NewReader(enc[:n])
		if fresh().XferSnap(r.Xfer()); !errors.Is(r.Err(), snap.ErrTruncated) {
			t.Fatalf("%s: cut at %d of %d: err %v, want ErrTruncated", name, n, len(enc), r.Err())
		}
	}
}

// smallMem is the Table 3 hierarchy shrunk until truncating a whole
// system at every byte is cheap; the tag arrays still span several
// chunks (L2: 4).
func smallMem() config.MemConfig {
	cfg := config.DefaultMem()
	cfg.L1SizeKB, cfg.L2SizeKB, cfg.L2Assoc, cfg.TLBEntries, cfg.MSHRs = 4, 32, 2, 8, 4
	return cfg
}

// busySystem is a two-chip system after enough shared traffic to
// populate every structure in it: tags in several chunks, evictions and
// writebacks, TLB replacement, fills still outstanding, directory
// sharers, owners, downgrades and invalidations, network contention.
func busySystem() *coherence.System {
	s := coherence.NewSystem(2, smallMem())
	for i := int64(0); i < 4000; i++ {
		chip := int(i / 5 % 2)
		addr := (i * 37 % 640) * 64 // 40 KB of lines: spills the 32 KB L2
		if i%3 == 0 {
			s.Store(20*i, chip, addr)
		} else {
			s.Load(20*i, chip, addr)
		}
	}
	for i := int64(0); i < 64; i++ { // ping-pong on 8 hot lines
		s.Store(80000+i, int(i%2), i%8*64)
		s.Load(80000+i, int((i+1)%2), i%8*64)
	}
	return s
}

// ringSection is a ring as a section, its frames listing at most two
// clusters.
type ringSection struct{ *obs.Ring }

func (r ringSection) XferSnap(x *snap.Xfer) { r.Ring.XferSnap(x, 2) }

func busyRing() *obs.Ring {
	r := obs.NewRing(4)
	for i := 0; i < 6; i++ { // wraps: start != 0, two frames dropped
		f := obs.Frame{Index: i, Start: int64(100 * i), End: int64(100*i + 100), Cycles: 100, Committed: uint64(40 + i), IPC: 0.4, Running: 2, AvgRunning: 1.5}
		f.Slots[0], f.Mem.Loads, f.Mem.DirLines = float64(i), uint64(9*i), i
		if i%2 == 1 {
			f.Clusters = []obs.ClusterSlots{{Chip: 0, Cluster: 1}, {Chip: 1, Cluster: 0}}
			f.Clusters[1].Slots[2] = 3.25
		}
		r.Push(f)
	}
	return r
}

// TestSectionsRoundTripAndTruncate runs every leaf section of the
// checkpoint format through checkSection.
func TestSectionsRoundTripAndTruncate(t *testing.T) {
	sys := busySystem()
	freshSys := func() *coherence.System { return coherence.NewSystem(2, smallMem()) }
	checkSection(t, "coherence.System", sys, func() section { return freshSys() })
	checkSection(t, "memsys.Chip", sys.Chips[1], func() section { return freshSys().Chips[1] })
	checkSection(t, "memsys.Cache", sys.Chips[0].L2, func() section { return freshSys().Chips[0].L2 })
	checkSection(t, "memsys.BankSet", sys.Chips[0].L1Banks, func() section { return freshSys().Chips[0].L1Banks })
	checkSection(t, "memsys.TLB", sys.Chips[0].TLB, func() section { return freshSys().Chips[0].TLB })
	checkSection(t, "memsys.MSHRFile", sys.Chips[1].MSHR, func() section { return freshSys().Chips[1].MSHR })
	checkSection(t, "coherence.Directory", sys.Dir, func() section { return freshSys().Dir })
	checkSection(t, "coherence.Stats", &sys.Stats, func() section { return &freshSys().Stats })
	checkSection(t, "interconnect.Network", sys.Net, func() section { return freshSys().Net })

	net := interconnect.New(4, 2)
	net.Transact(5, 0, 3)
	net.Transact(5, 3, 1)
	checkSection(t, "interconnect.Network (4 nodes)", net, func() section { return interconnect.New(4, 2) })

	sync := parallel.NewSync(4)
	sync.TryLock(3, 1)
	sync.TryLock(3, 2)
	sync.TryLock(9, 0)
	sync.Arrive(1)
	sync.Arrive(2)
	checkSection(t, "parallel.Sync", sync, func() section { return parallel.NewSync(4) })

	mem := interp.NewMemory()
	v := mem.NewView()
	for _, a := range []int64{0x2000, 0x2008, 0x9ff8, 0x40000} {
		v.Store(a, uint64(a)*0x9e3779b97f4a7c15)
	}
	checkSection(t, "interp.Memory", mem, func() section { return interp.NewMemory() })

	b := prog.NewBuilder("t")
	b.Li(3, 7)
	b.Nop()
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	th := interp.NewThread(0, p, mem)
	th.Exec(new(interp.DynInstr))
	th.FP[2] = -1.5
	checkSection(t, "interp.Thread", th, func() section { return interp.NewThread(0, p, interp.NewMemory()) })

	ring := busyRing()
	checkSection(t, "obs.Ring", ringSection{ring}, func() section { return ringSection{obs.NewRing(4)} })
	frames := ring.Frames()
	checkSection(t, "coherence.MemSnapshot", &frames[len(frames)-1].Mem, func() section { return new(coherence.MemSnapshot) })
}
