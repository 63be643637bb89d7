// Package config holds the paper's experimental configuration as data:
// the functional-unit latencies (Table 1, defined in package isa), the
// seven processor architectures (Table 2), the memory hierarchy
// (Table 3), and the low-end / high-end machine builders (§5).
package config

import "fmt"

// Arch describes one chip organization from Table 2. Every preset is an
// 8-issue chip overall; the presets differ in how issue width, threads,
// functional units, window entries and rename registers are partitioned
// across clusters.
type Arch struct {
	Name string

	Clusters          int // number of independent clusters on the chip
	IssueWidth        int // max instructions issued per cluster per cycle
	ThreadsPerCluster int // hardware contexts per cluster

	// Functional units per cluster (Table 2, int/ld-st/fp).
	IntUnits  int
	LdStUnits int
	FPUnits   int

	// Entries in the instruction queue & reorder buffer per cluster.
	// The two structures are the same size in every Table 2 row, so the
	// simulator models a unified window (entries live from dispatch to
	// commit; the un-issued subset is the "queue").
	WindowEntries int

	// Renaming registers per cluster (int and fp pools are equal in
	// every Table 2 row).
	RenameInt int
	RenameFP  int

	// PredictorEntries / BTBEntries override the §3.1 front-end table
	// sizes (0 = the paper's 2K entries). Used by ablation studies.
	PredictorEntries int
	BTBEntries       int
}

// PredictorSize returns the branch-prediction table size in entries.
func (a Arch) PredictorSize() int {
	if a.PredictorEntries > 0 {
		return a.PredictorEntries
	}
	return BranchPredEntries
}

// BTBSize returns the branch target buffer size in entries.
func (a Arch) BTBSize() int {
	if a.BTBEntries > 0 {
		return a.BTBEntries
	}
	return BTBEntries
}

// ClockFactor returns the architecture's relative clock frequency under
// the Palacharla/Jouppi cycle-time model the paper invokes in §5.2: the
// register bypass network makes an 8-issue cluster's cycle roughly
// twice a 4-issue cluster's, while 4-issue and narrower clusters clock
// alike. The Figure 4/5/7/8 charts deliberately ignore this (equal
// cycle time); the paper's conclusion applies it.
func (a Arch) ClockFactor() float64 {
	if a.IssueWidth >= 8 {
		return 0.5
	}
	return 1.0
}

// ThreadsPerChip returns the number of hardware contexts on the chip.
func (a Arch) ThreadsPerChip() int { return a.Clusters * a.ThreadsPerCluster }

// Validate checks internal consistency of an architecture description.
func (a Arch) Validate() error {
	switch {
	case a.Clusters <= 0:
		return fmt.Errorf("config: %s: clusters must be positive", a.Name)
	case a.IssueWidth <= 0:
		return fmt.Errorf("config: %s: issue width must be positive", a.Name)
	case a.ThreadsPerCluster <= 0:
		return fmt.Errorf("config: %s: threads per cluster must be positive", a.Name)
	case a.IntUnits <= 0 || a.LdStUnits <= 0 || a.FPUnits <= 0:
		return fmt.Errorf("config: %s: every FU class needs at least one unit", a.Name)
	case a.WindowEntries < a.IssueWidth:
		return fmt.Errorf("config: %s: window smaller than issue width", a.Name)
	case a.RenameInt <= 0 || a.RenameFP <= 0:
		return fmt.Errorf("config: %s: rename pools must be positive", a.Name)
	case !pow2(a.PredictorSize()):
		return fmt.Errorf("config: %s: PredictorEntries %d is not a power of two", a.Name, a.PredictorEntries)
	case !pow2(a.BTBSize()):
		return fmt.Errorf("config: %s: BTBEntries %d is not a power of two", a.Name, a.BTBEntries)
	}
	return nil
}

// pow2 reports whether v is a positive power of two.
func pow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// The seven architectures of Table 2.
var (
	// FA8 is eight 1-issue clusters, one thread each. It is also the
	// SMT8 special case of the clustered SMT family (§5.2).
	FA8 = Arch{Name: "FA8", Clusters: 8, IssueWidth: 1, ThreadsPerCluster: 1,
		IntUnits: 1, LdStUnits: 1, FPUnits: 1, WindowEntries: 16, RenameInt: 16, RenameFP: 16}

	// FA4 is four 2-issue clusters, one thread each.
	FA4 = Arch{Name: "FA4", Clusters: 4, IssueWidth: 2, ThreadsPerCluster: 1,
		IntUnits: 2, LdStUnits: 2, FPUnits: 2, WindowEntries: 32, RenameInt: 32, RenameFP: 32}

	// FA2 is two 4-issue clusters, one thread each.
	FA2 = Arch{Name: "FA2", Clusters: 2, IssueWidth: 4, ThreadsPerCluster: 1,
		IntUnits: 4, LdStUnits: 4, FPUnits: 4, WindowEntries: 64, RenameInt: 64, RenameFP: 64}

	// FA1 is a conventional 8-issue superscalar running one thread.
	FA1 = Arch{Name: "FA1", Clusters: 1, IssueWidth: 8, ThreadsPerCluster: 1,
		IntUnits: 6, LdStUnits: 4, FPUnits: 4, WindowEntries: 128, RenameInt: 128, RenameFP: 128}

	// SMT4 is four 2-issue SMT clusters, two threads each.
	SMT4 = Arch{Name: "SMT4", Clusters: 4, IssueWidth: 2, ThreadsPerCluster: 2,
		IntUnits: 2, LdStUnits: 2, FPUnits: 2, WindowEntries: 32, RenameInt: 32, RenameFP: 32}

	// SMT2 is two 4-issue SMT clusters, four threads each — the paper's
	// recommended design point.
	SMT2 = Arch{Name: "SMT2", Clusters: 2, IssueWidth: 4, ThreadsPerCluster: 4,
		IntUnits: 4, LdStUnits: 4, FPUnits: 4, WindowEntries: 64, RenameInt: 64, RenameFP: 64}

	// SMT1 is the fully centralized 8-issue SMT with eight threads.
	SMT1 = Arch{Name: "SMT1", Clusters: 1, IssueWidth: 8, ThreadsPerCluster: 8,
		IntUnits: 6, LdStUnits: 4, FPUnits: 4, WindowEntries: 128, RenameInt: 128, RenameFP: 128}

	// SMT8 is the clustered-SMT name for the FA8 organization (§5.2:
	// "The SMT8 processor is a special case ... the same as FA8").
	SMT8 = func() Arch { a := FA8; a.Name = "SMT8"; return a }()
)

// AllArchs lists every distinct organization (SMT8 aliases FA8 and is
// reported separately only in the Figure 7/8 experiments).
var AllArchs = []Arch{FA8, FA4, FA2, FA1, SMT4, SMT2, SMT1}

// ArchByName looks up a preset (FA8..SMT1, SMT8) by its Table 2 name.
func ArchByName(name string) (Arch, error) {
	for _, a := range append([]Arch{SMT8}, AllArchs...) {
		if a.Name == name {
			return a, nil
		}
	}
	return Arch{}, fmt.Errorf("config: unknown architecture %q", name)
}

// Front-end parameters of the base superscalar core (§3.1).
const (
	// BranchPredEntries is the size of the direct-mapped branch
	// prediction table (2K entries of 2-bit saturating counters).
	BranchPredEntries = 2048
	// BTBEntries is the size of the direct-mapped branch target buffer.
	BTBEntries = 2048
	// FrontEndDelay is the decode+rename+dispatch depth in cycles:
	// instructions become issue-eligible this many cycles after fetch.
	FrontEndDelay = 2
)

// MemConfig is Table 3 plus the few knobs the paper leaves implicit.
// All latencies are contention-free round trips in cycles.
type MemConfig struct {
	L1SizeKB  int // 64
	L2SizeKB  int // 1024
	LineBytes int // 64
	L1Assoc   int // 2
	L2Assoc   int // 4
	FillTime  int // 8 (both levels)
	L1Banks   int // 7
	L2Banks   int // 7
	Occupancy int // 1 (read or write bank occupancy, both levels)

	L1Latency       int // 1
	L2Latency       int // 10
	LocalMemLatency int // 40
	RemoteMemLat    int // 60
	RemoteL2Lat     int // 75

	// MSHRs bounds outstanding loads per chip ("non-blocking with up to
	// 32 outstanding loads").
	MSHRs int // 32

	// TLBEntries is the shared, fully associative, random-replacement
	// TLB (512 entries). TLBMissPenalty is our documented knob (the
	// paper does not state one); identical across architectures so it
	// cancels in every comparison.
	TLBEntries     int
	TLBMissPenalty int
	PageBytes      int

	// NetOccupancy is the per-message port occupancy used to model
	// contention in the inter-chip network on top of the Table 3
	// round-trip latencies.
	NetOccupancy int
}

// DefaultMem returns Table 3 verbatim (plus documented knobs).
func DefaultMem() MemConfig {
	return MemConfig{
		L1SizeKB: 64, L2SizeKB: 1024, LineBytes: 64,
		L1Assoc: 2, L2Assoc: 4, FillTime: 8,
		L1Banks: 7, L2Banks: 7, Occupancy: 1,
		L1Latency: 1, L2Latency: 10,
		LocalMemLatency: 40, RemoteMemLat: 60, RemoteL2Lat: 75,
		MSHRs:      32,
		TLBEntries: 512, TLBMissPenalty: 30, PageBytes: 4096,
		NetOccupancy: 4,
	}
}

// Validate checks a memory configuration for internal consistency. It is
// the only check: the caches, banks, TLB, MSHR file and network that
// memsys, coherence and interconnect build from an accepted
// configuration trust it.
func (m MemConfig) Validate() error {
	switch {
	case m.L1SizeKB <= 0 || m.L2SizeKB <= 0:
		return fmt.Errorf("config: cache sizes must be positive")
	case !pow2(m.LineBytes):
		return fmt.Errorf("config: line size must be a positive power of two")
	case m.L1Assoc <= 0 || m.L2Assoc <= 0:
		return fmt.Errorf("config: associativity must be positive")
	case m.L1SizeKB*1024%(m.LineBytes*m.L1Assoc) != 0 || !pow2(m.L1SizeKB*1024/(m.LineBytes*m.L1Assoc)):
		return fmt.Errorf("config: L1SizeKB %d, LineBytes %d and L1Assoc %d do not give a power-of-two number of whole sets", m.L1SizeKB, m.LineBytes, m.L1Assoc)
	case m.L2SizeKB*1024%(m.LineBytes*m.L2Assoc) != 0 || !pow2(m.L2SizeKB*1024/(m.LineBytes*m.L2Assoc)):
		return fmt.Errorf("config: L2SizeKB %d, LineBytes %d and L2Assoc %d do not give a power-of-two number of whole sets", m.L2SizeKB, m.LineBytes, m.L2Assoc)
	case m.L1Banks <= 0 || m.L2Banks <= 0:
		return fmt.Errorf("config: bank counts must be positive")
	case m.Occupancy <= 0:
		return fmt.Errorf("config: Occupancy must be positive")
	case m.NetOccupancy <= 0:
		return fmt.Errorf("config: NetOccupancy must be positive")
	case m.MSHRs <= 0:
		return fmt.Errorf("config: MSHR count must be positive")
	case m.TLBEntries <= 0 || m.PageBytes <= 0:
		return fmt.Errorf("config: TLB geometry must be positive")
	}
	return nil
}

// DefaultAllocEpoch is the rebalance interval (cycles) used when a
// dynamic allocation policy is selected without an explicit epoch.
const DefaultAllocEpoch = 10000

// AllocConfig selects the thread-to-cluster allocation policy
// (internal/alloc) and, for dynamic policies, the epoch length in
// cycles between Rebalance consultations. The allocation figure's
// dynamic columns set it (harness.Suite.AllocationFigure); no paper
// run does, because with one thread per context the seed placement
// fills every cluster and leaves a policy nothing to move.
type AllocConfig struct {
	// Policy names an allocation policy of alloc's table: "static" (or "")
	// never migrates, "icount" and "symbiosis" rebalance. Threads start
	// at the seed placement under every policy. Any other name, the
	// figure's "oracle" column among them, is refused by core.New.
	Policy string
	// Epoch is the rebalance interval in cycles (dynamic policies
	// only; <= 0 resolves to DefaultAllocEpoch).
	Epoch int64
}

// Normalize resolves the defaulted forms: "" and "static" collapse to
// the zero AllocConfig (so a machine explicitly configured static is
// the same machine — same hash, same Result — as one that never heard
// of allocation), and a dynamic policy with no epoch gets
// DefaultAllocEpoch.
func (a AllocConfig) Normalize() AllocConfig {
	if a.Policy == "" || a.Policy == "static" {
		return AllocConfig{}
	}
	if a.Epoch <= 0 {
		a.Epoch = DefaultAllocEpoch
	}
	return a
}

// Machine is a full system: some number of identical chips sharing one
// application under directory-based coherence (Fig. 3). The low-end
// machine has one chip; the high-end machine has four.
type Machine struct {
	Name  string
	Chips int
	Arch  Arch
	Mem   MemConfig
	// Alloc selects the thread-to-cluster allocation policy; the zero
	// value is the paper's static placement.
	Alloc AllocConfig
}

// Threads returns the total hardware contexts in the machine; the
// harness creates exactly this many application threads (§4).
func (m Machine) Threads() int { return m.Chips * m.Arch.ThreadsPerChip() }

// MaxChips bounds Machine.Chips: the coherence directory keeps one
// sharer bit per chip in a uint32.
const MaxChips = 32

// Validate checks the machine description. A machine it accepts builds:
// core.New, NewMulti and Restore call it, and nothing below them checks
// again.
func (m Machine) Validate() error {
	if m.Chips <= 0 {
		return fmt.Errorf("config: %s: chip count must be positive", m.Name)
	}
	if m.Chips > MaxChips {
		return fmt.Errorf("config: %s: Chips %d exceeds MaxChips %d", m.Name, m.Chips, MaxChips)
	}
	if err := m.Arch.Validate(); err != nil {
		return err
	}
	return m.Mem.Validate()
}

// LowEnd returns the single-chip workstation configuration of §5.
func LowEnd(a Arch) Machine {
	m := Preset(a, false)
	m.Name = "low-end/" + a.Name
	return m
}

// HighEnd returns the 4-chip DASH-like multiprocessor of §5.
func HighEnd(a Arch) Machine {
	m := Preset(a, true)
	m.Name = "high-end/" + a.Name
	return m
}

// Preset returns HighEnd(a) when highEnd is set, LowEnd(a) otherwise,
// without the name: everything a run's hash reads, and no string built.
func Preset(a Arch, highEnd bool) Machine {
	m := Machine{Chips: 1, Arch: a, Mem: DefaultMem()}
	if highEnd {
		m.Chips = 4
	}
	return m
}
