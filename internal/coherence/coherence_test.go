package coherence

import (
	"testing"
	"testing/quick"

	"clustersmt/internal/config"
	"clustersmt/internal/memsys"
)

func newSys(t *testing.T, chips int) *System {
	t.Helper()
	cfg := config.DefaultMem()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewSystem(chips, cfg)
}

func TestSingleChipLoadPath(t *testing.T) {
	s := newSys(t, 1)
	// Cold load: TLB miss + local memory.
	ready, cls, ok := s.Load(0, 0, 0x10000)
	if !ok {
		t.Fatal("load rejected")
	}
	if cls != LocalMem {
		t.Fatalf("class = %v, want local memory", cls)
	}
	minLat := int64(s.Cfg.TLBMissPenalty + s.Cfg.LocalMemLatency)
	if ready < minLat {
		t.Fatalf("ready = %d, want >= %d", ready, minLat)
	}
	// Warm load: L1 hit.
	now := ready + 100
	ready2, cls2, _ := s.Load(now, 0, 0x10000)
	if cls2 != L1Hit {
		t.Fatalf("second class = %v", cls2)
	}
	if ready2 != now+int64(s.Cfg.L1Latency) {
		t.Fatalf("L1 hit ready = %d", ready2)
	}
}

// TestL2HitAfterL1Eviction is Table 3's L2 row as a known answer: two
// more lines in base's 2-way L1 set evict it (LRU), the larger L2 keeps
// it, and reloading base is an L2 hit ready after the L1 and L2
// latencies.
func TestL2HitAfterL1Eviction(t *testing.T) {
	s := newSys(t, 1)
	mem := config.DefaultMem()
	base := int64(0x10000)
	stride := int64(mem.L1SizeKB * 1024 / mem.L1Assoc) // next line in the same L1 set
	s.Load(0, 0, base)
	s.Load(1000, 0, base+stride)
	s.Load(2000, 0, base+2*stride)
	ready, cls, _ := s.Load(5000, 0, base)
	if want := int64(5000 + mem.L1Latency + mem.L2Latency); cls != L2Hit || ready != want {
		t.Fatalf("reload = %v ready at %d, want %v ready at %d", cls, ready, L2Hit, want)
	}
}

func TestMSHRMergeClass(t *testing.T) {
	s := newSys(t, 1)
	r1, _, _ := s.Load(0, 0, 0x20000)
	r2, cls, ok := s.Load(1, 0, 0x20008) // same 64B line
	if !ok || cls != MSHRMerge {
		t.Fatalf("merge class = %v ok=%v", cls, ok)
	}
	if r2 < 1 || r2 > r1 {
		t.Fatalf("merge ready = %d, primary = %d", r2, r1)
	}
}

func TestMSHRExhaustionRejectsLoad(t *testing.T) {
	cfg := config.DefaultMem()
	cfg.MSHRs = 2
	s := NewSystem(1, cfg)
	s.Load(0, 0, 0x10000)
	s.Load(0, 0, 0x20000)
	_, _, ok := s.Load(0, 0, 0x30000)
	if ok {
		t.Fatal("third miss should be rejected")
	}
	if s.Stats.LoadRetries != 1 {
		t.Fatalf("retries = %d", s.Stats.LoadRetries)
	}
	// After fills complete the next load must be accepted.
	if _, _, ok := s.Load(10_000, 0, 0x30000); !ok {
		t.Fatal("load after drain rejected")
	}
}

// TestRemoteMemoryClass is Table 3's local- and remote-memory rows as
// known answers. Each load is the first touch of its page on its chip,
// so with banks and network ports idle it is ready at
//
//	issue + TLBMissPenalty (cold page) + L1Latency (the L1 probe before
//	the L2 bank) + the class's Table 3 latency
//
// (30 + 1 + 60 = 91 cycles remote, 30 + 1 + 40 = 71 local, from
// config.DefaultMem()); an idle network adds no queueing to the remote
// round trip, and a load homed on its own chip never enters it.
func TestRemoteMemoryClass(t *testing.T) {
	s := newSys(t, 4)
	mem := config.DefaultMem()
	cold := int64(mem.TLBMissPenalty + mem.L1Latency)
	// Page-interleaved homes: page 1 is homed on chip 1.
	addr := int64(s.Cfg.PageBytes) // page 1
	if h := s.Dir.Home(addr); h != 1 {
		t.Fatalf("home = %d, want 1", h)
	}
	for _, c := range []struct {
		name    string
		now     int64
		chip    int
		addr    int64
		cls     AccessClass
		latency int
	}{
		{"page 1 from chip 0", 0, 0, addr, RemoteMem, mem.RemoteMemLat},
		{"page 0 from chip 1", 1000, 1, 0, RemoteMem, mem.RemoteMemLat},
		{"page 5 (homed on chip 1) from chip 1", 2000, 1, addr + int64(s.Cfg.PageBytes)*4, LocalMem, mem.LocalMemLatency},
	} {
		ready, cls, ok := s.Load(c.now, c.chip, c.addr)
		if want := c.now + cold + int64(c.latency); !ok || cls != c.cls || ready != want {
			t.Errorf("%s: %v ready at %d (ok %v), want %v ready at %d", c.name, cls, ready, ok, c.cls, want)
		}
	}
}

// TestDirtyRemoteInterventionAndDowngrade is Table 3's remote-L2 row as
// a known answer, plus the protocol effects of the intervention. Chip
// 1's read of a line chip 0 holds Modified is the first touch of its
// page on chip 1, so with its banks and the network ports idle it is
// ready at 100 + TLBMissPenalty + L1Latency + RemoteL2Lat = 100 + 30 +
// 1 + 75 = 206 (config.DefaultMem()).
func TestDirtyRemoteInterventionAndDowngrade(t *testing.T) {
	s := newSys(t, 2)
	mem := config.DefaultMem()
	addr := int64(0x40000)
	line := s.Chips[0].Line(addr)

	// Chip 0 writes the line: fetch exclusive, Modified on chip 0.
	s.Store(0, 0, addr)
	if st := s.Chips[0].L2.Probe(line); st != memsys.Modified {
		t.Fatalf("chip0 state = %v", st)
	}
	_, owner := s.Dir.Sharers(line)
	if owner != 0 {
		t.Fatalf("owner = %d, want 0", owner)
	}

	// Chip 1 reads: 3-hop RemoteL2, chip 0 downgraded, both sharers.
	ready, cls, _ := s.Load(100, 1, addr)
	if want := int64(100 + mem.TLBMissPenalty + mem.L1Latency + mem.RemoteL2Lat); cls != RemoteL2 || ready != want {
		t.Fatalf("read = %v ready at %d, want %v ready at %d", cls, ready, RemoteL2, want)
	}
	if st := s.Chips[0].L2.Probe(line); st != memsys.Shared {
		t.Fatalf("chip0 after downgrade = %v", st)
	}
	mask, owner := s.Dir.Sharers(line)
	if owner != -1 || mask != 0b11 {
		t.Fatalf("dir after read: mask=%b owner=%d", mask, owner)
	}
	if s.Dir.Downgrades != 1 || s.Dir.ThreeHops != 1 {
		t.Fatalf("dir stats: %+v", s.Dir)
	}
}

func TestStoreUpgradeInvalidatesSharers(t *testing.T) {
	s := newSys(t, 2)
	addr := int64(0x50000)
	line := s.Chips[0].Line(addr)
	s.Load(0, 0, addr)
	s.Load(0, 1, addr)
	mask, _ := s.Dir.Sharers(line)
	if mask != 0b11 {
		t.Fatalf("sharers = %b", mask)
	}
	// Chip 1 stores: chip 0's copy must die.
	s.Store(100, 1, addr)
	if st := s.Chips[0].L2.Probe(line); st != memsys.Invalid {
		t.Fatalf("chip0 state after remote store = %v", st)
	}
	if st := s.Chips[1].L2.Probe(line); st != memsys.Modified {
		t.Fatalf("chip1 state = %v", st)
	}
	mask, owner := s.Dir.Sharers(line)
	if mask != 0b10 || owner != 1 {
		t.Fatalf("dir: mask=%b owner=%d", mask, owner)
	}
	if s.Dir.Invalidations == 0 {
		t.Fatal("no invalidations recorded")
	}
}

func TestStoreToOwnModifiedLineIsCheap(t *testing.T) {
	s := newSys(t, 1)
	s.Store(0, 0, 0x60000)
	before := s.Stats.StoreHits
	s.Store(10, 0, 0x60000)
	if s.Stats.StoreHits != before+1 {
		t.Fatal("second store should hit Modified")
	}
}

func TestExclusiveFetchFromDirtyRemote(t *testing.T) {
	s := newSys(t, 2)
	addr := int64(0x70000)
	line := s.Chips[0].Line(addr)
	s.Store(0, 0, addr)  // chip 0 owns dirty
	s.Store(50, 1, addr) // chip 1 steals exclusively
	if st := s.Chips[0].L2.Probe(line); st != memsys.Invalid {
		t.Fatalf("chip0 = %v, want Invalid", st)
	}
	mask, owner := s.Dir.Sharers(line)
	if owner != 1 || mask != 0b10 {
		t.Fatalf("dir: mask=%b owner=%d", mask, owner)
	}
}

func TestAccessClassStringsAndStats(t *testing.T) {
	for c := AccessClass(0); c < NumAccessClasses; c++ {
		if c.String() == "" {
			t.Errorf("class %d: empty string", c)
		}
	}
	s := newSys(t, 1)
	s.Load(0, 0, 0)
	if s.Stats.Loads != 1 {
		t.Fatal("load not counted")
	}
}

// Property: the directory never records an owner that is also absent
// from the sharer mask, and single-owner exclusivity always holds after
// an arbitrary load/store interleaving.
func TestDirectoryInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSystem(4, config.DefaultMem())
		now := int64(0)
		for _, op := range ops {
			chip := int(op) % 4
			addr := int64(op%32) * 64
			now += 3
			if op%2 == 0 {
				s.Load(now, chip, addr)
			} else {
				s.Store(now, chip, addr)
			}
			line := s.Chips[chip].Line(addr)
			mask, owner := s.Dir.Sharers(line)
			if owner >= 0 {
				if mask&(1<<uint(owner)) == 0 {
					return false // owner not in sharer set
				}
				if mask != 1<<uint(owner) {
					return false // dirty line with extra sharers
				}
				if s.Chips[owner].L2.Probe(line) != memsys.Modified {
					return false
				}
				// Everyone else must not hold the line.
				for c := 0; c < 4; c++ {
					if c != owner && s.Chips[c].L2.Probe(line) != memsys.Invalid {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: loads always return a ready cycle at or after the request.
func TestLoadLatencyMonotone(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSystem(2, config.DefaultMem())
		now := int64(0)
		for _, op := range ops {
			now += int64(op % 5)
			ready, _, ok := s.Load(now, int(op)%2, int64(op)*8)
			if ok && ready < now {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	cfg := config.DefaultMem()
	cfg.L2SizeKB = 4 // 16 sets: tiny, to force evictions
	cfg.L1SizeKB = 4
	s := NewSystem(2, cfg)
	setStride := int64(16 * 64)
	// Dirty a line on chip 0, then evict it with conflicting fills.
	s.Store(0, 0, 0)
	for i := int64(1); i <= 4; i++ {
		s.Load(int64(i)*100, 0, i*setStride)
	}
	if s.Dir.Writebacks == 0 {
		t.Fatal("dirty eviction produced no writeback")
	}
	// The directory must no longer consider chip 0 the owner.
	if _, owner := s.Dir.Sharers(0); owner == 0 {
		t.Fatal("evicted owner still registered")
	}
}

func TestDirectoryDropSharerCleansUp(t *testing.T) {
	s := newSys(t, 2)
	s.Load(0, 0, 0x1000)
	before := s.Dir.Lines()
	s.Dir.DropSharer(0, s.Chips[0].Line(0x1000))
	if s.Dir.Lines() != before-1 {
		t.Fatalf("empty entry not reclaimed: %d -> %d", before, s.Dir.Lines())
	}
	// Dropping an untracked line is a no-op.
	s.Dir.DropSharer(1, 0x999000)
}

func TestLoadLatencyClassesOrdered(t *testing.T) {
	// Average observed latency must respect the Table 3 ordering:
	// L1 < L2 < local memory < remote memory on a mixed workload.
	s := newSys(t, 4)
	now := int64(0)
	for i := int64(0); i < 4000; i++ {
		addr := (i % 600) * 64 // re-references produce hits
		now += 4
		s.Load(now, int(i)%4, addr)
	}
	avg := func(c AccessClass) float64 {
		if s.Stats.ByClass[c] == 0 {
			return -1
		}
		return float64(s.Stats.LatencyByClass[c]) / float64(s.Stats.ByClass[c])
	}
	l1, local, remote := avg(L1Hit), avg(LocalMem), avg(RemoteMem)
	if l1 < 0 || local < 0 || remote < 0 {
		t.Fatalf("missing classes: l1=%v local=%v remote=%v (counts %v)", l1, local, remote, s.Stats.ByClass)
	}
	if !(l1 < local && local < remote) {
		t.Errorf("latency ordering violated: L1=%.1f local=%.1f remote=%.1f", l1, local, remote)
	}
}

func TestTLBMissPenaltyApplied(t *testing.T) {
	cfg := config.DefaultMem()
	cfg.TLBMissPenalty = 100
	s := NewSystem(1, cfg)
	ready, _, _ := s.Load(0, 0, 0)
	if ready < 100 {
		t.Fatalf("cold load ready=%d ignores the TLB penalty", ready)
	}
	// Same page, warm TLB: no penalty.
	ready2, _, _ := s.Load(1000, 0, 8)
	if ready2 >= 1100 {
		t.Fatalf("warm-TLB load charged a penalty: %d", ready2)
	}
}

// TestDirectoryTableGrowth drives the table through enough distinct
// lines to force several rehashes (growth and tombstone reclamation)
// and checks every entry survives with its state intact.
func TestDirectoryTableGrowth(t *testing.T) {
	d := NewDirectory(4, 4096)
	const n = 4096
	for i := int64(0); i < n; i++ {
		e := d.entry(i * 64)
		e.sharers = 1 << uint(i%4)
	}
	if d.Lines() != n {
		t.Fatalf("lines = %d, want %d", d.Lines(), n)
	}
	// Drop every other line (tombstones), then re-add new lines to
	// force reclamation rehashes.
	for i := int64(0); i < n; i += 2 {
		d.DropSharer(int(i%4), i*64)
	}
	if d.Lines() != n/2 {
		t.Fatalf("lines after drops = %d, want %d", d.Lines(), n/2)
	}
	for i := int64(n); i < n+n/2; i++ {
		d.entry(i * 64).sharers = 1
	}
	for i := int64(1); i < n; i += 2 {
		if mask, _ := d.Sharers(i * 64); mask != 1<<uint(i%4) {
			t.Fatalf("line %d: mask = %b", i*64, mask)
		}
	}
	if d.Lines() != n/2+n/2 {
		t.Fatalf("lines after re-adds = %d", d.Lines())
	}
}

func TestMissRates(t *testing.T) {
	m := MemSnapshot{L1Hits: 90, L1Misses: 10}
	if got := m.L1MissRate(); got != 0.1 {
		t.Errorf("L1MissRate = %v, want 0.1", got)
	}
	if got := m.L2MissRate(); got != 0 {
		t.Errorf("L2MissRate with no accesses = %v, want 0", got)
	}
}

// TestMemSnapshotSub: Sub subtracts every counter and keeps the later
// snapshot's gauges.
func TestMemSnapshotSub(t *testing.T) {
	prev := MemSnapshot{1, 2, 3, 4, 5, 6, 7, 50, 60}
	cur := MemSnapshot{11, 22, 33, 44, 55, 66, 77, 8, 9}
	if got, want := cur.Sub(prev), (MemSnapshot{10, 20, 30, 40, 50, 60, 70, 8, 9}); got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
}
