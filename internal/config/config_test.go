package config

import (
	"strings"
	"testing"
)

// TestTable2Presets pins every architecture row of Table 2.
func TestTable2Presets(t *testing.T) {
	cases := []struct {
		a               Arch
		clusters, issue int
		threadsPerClus  int
		iu, lu, fu      int
		window, renInt  int
	}{
		{FA8, 8, 1, 1, 1, 1, 1, 16, 16},
		{FA4, 4, 2, 1, 2, 2, 2, 32, 32},
		{FA2, 2, 4, 1, 4, 4, 4, 64, 64},
		{FA1, 1, 8, 1, 6, 4, 4, 128, 128},
		{SMT4, 4, 2, 2, 2, 2, 2, 32, 32},
		{SMT2, 2, 4, 4, 4, 4, 4, 64, 64},
		{SMT1, 1, 8, 8, 6, 4, 4, 128, 128},
	}
	for _, c := range cases {
		a := c.a
		if a.Clusters != c.clusters || a.IssueWidth != c.issue || a.ThreadsPerCluster != c.threadsPerClus {
			t.Errorf("%s: shape %d/%d/%d", a.Name, a.Clusters, a.IssueWidth, a.ThreadsPerCluster)
		}
		if a.IntUnits != c.iu || a.LdStUnits != c.lu || a.FPUnits != c.fu {
			t.Errorf("%s: FUs %d/%d/%d", a.Name, a.IntUnits, a.LdStUnits, a.FPUnits)
		}
		if a.WindowEntries != c.window || a.RenameInt != c.renInt || a.RenameFP != c.renInt {
			t.Errorf("%s: window/rename %d/%d/%d", a.Name, a.WindowEntries, a.RenameInt, a.RenameFP)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

// TestChipInvariants: every preset is an 8-issue, up-to-8-thread,
// 128-entry-window chip in aggregate (Table 2 bracketed columns), except
// FA1/SMT1 whose FU mix is 6/4/4.
func TestChipInvariants(t *testing.T) {
	for _, a := range AllArchs {
		if got := a.Clusters * a.IssueWidth; got != 8 {
			t.Errorf("%s: chip issue = %d", a.Name, got)
		}
		if got := a.Clusters * a.WindowEntries; got != 128 {
			t.Errorf("%s: chip window = %d", a.Name, got)
		}
		if got := a.Clusters * a.RenameInt; got != 128 {
			t.Errorf("%s: chip rename = %d", a.Name, got)
		}
		if a.ThreadsPerChip() > 8 || a.ThreadsPerChip() < 1 {
			t.Errorf("%s: threads/chip = %d", a.Name, a.ThreadsPerChip())
		}
	}
}

func TestSMT8AliasesFA8(t *testing.T) {
	if SMT8.Clusters != FA8.Clusters || SMT8.IssueWidth != FA8.IssueWidth ||
		SMT8.ThreadsPerCluster != FA8.ThreadsPerCluster || SMT8.Name != "SMT8" {
		t.Fatalf("SMT8 = %+v", SMT8)
	}
}

func TestArchByName(t *testing.T) {
	for _, name := range []string{"FA8", "FA4", "FA2", "FA1", "SMT4", "SMT2", "SMT1", "SMT8"} {
		a, err := ArchByName(name)
		if err != nil || a.Name != name {
			t.Errorf("ArchByName(%q) = %v, %v", name, a.Name, err)
		}
	}
	if _, err := ArchByName("SMT16"); err == nil {
		t.Error("unknown arch accepted")
	}
}

// TestTable3Memory pins the memory hierarchy parameters to Table 3.
func TestTable3Memory(t *testing.T) {
	m := DefaultMem()
	checks := map[string][2]int{
		"L1 size":       {m.L1SizeKB, 64},
		"L2 size":       {m.L2SizeKB, 1024},
		"line":          {m.LineBytes, 64},
		"L1 assoc":      {m.L1Assoc, 2},
		"L2 assoc":      {m.L2Assoc, 4},
		"fill":          {m.FillTime, 8},
		"L1 banks":      {m.L1Banks, 7},
		"L2 banks":      {m.L2Banks, 7},
		"occupancy":     {m.Occupancy, 1},
		"L1 latency":    {m.L1Latency, 1},
		"L2 latency":    {m.L2Latency, 10},
		"local memory":  {m.LocalMemLatency, 40},
		"remote memory": {m.RemoteMemLat, 60},
		"remote L2":     {m.RemoteL2Lat, 75},
		"MSHRs":         {m.MSHRs, 32},
		"TLB entries":   {m.TLBEntries, 512},
	}
	for name, c := range checks {
		if c[0] != c[1] {
			t.Errorf("%s = %d, want %d", name, c[0], c[1])
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMemValidateRejectsBadGeometry(t *testing.T) {
	m := DefaultMem()
	m.LineBytes = 48
	if err := m.Validate(); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	m = DefaultMem()
	m.MSHRs = 0
	if err := m.Validate(); err == nil {
		t.Error("zero MSHRs accepted")
	}
	// Whole sets that are not a power of two in number, and occupancies
	// the bank sets and the network cannot charge: each error names its
	// field.
	for _, c := range []struct {
		field string
		set   func(*MemConfig)
	}{
		{"L1SizeKB", func(m *MemConfig) { m.L1SizeKB = 96 }},   // 768 sets
		{"L2SizeKB", func(m *MemConfig) { m.L2SizeKB = 1536 }}, // 6144 sets
		{"Occupancy", func(m *MemConfig) { m.Occupancy = 0 }},
		{"Occupancy", func(m *MemConfig) { m.Occupancy = -1 }},
		{"NetOccupancy", func(m *MemConfig) { m.NetOccupancy = 0 }},
		{"NetOccupancy", func(m *MemConfig) { m.NetOccupancy = -1 }},
	} {
		m := DefaultMem()
		c.set(&m)
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: Validate = %v, want an error naming %s", m, err, c.field)
		}
	}
}

func TestArchValidateRejectsBadTables(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Arch)
	}{
		{"PredictorEntries", func(a *Arch) { a.PredictorEntries = 1000 }},
		{"PredictorEntries", func(a *Arch) { a.PredictorEntries = 3 }},
		{"BTBEntries", func(a *Arch) { a.BTBEntries = 1000 }},
	} {
		a := SMT2
		c.set(&a)
		if err := a.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("Validate = %v, want an error naming %s", err, c.field)
		}
	}
	a := SMT2
	a.PredictorEntries, a.BTBEntries = 512, 4096
	if err := a.Validate(); err != nil {
		t.Errorf("power-of-two tables refused: %v", err)
	}
}

func TestMachineValidateRejectsTooManyChips(t *testing.T) {
	m := HighEnd(SMT2)
	m.Chips = MaxChips
	if err := m.Validate(); err != nil {
		t.Fatalf("%d chips refused: %v", MaxChips, err)
	}
	m.Chips = MaxChips + 1
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "Chips") {
		t.Errorf("Validate = %v, want an error naming Chips", err)
	}
}

// TestPresetsValidate: every machine a job or figure can name is
// accepted, so nothing above core.New needs to check one.
func TestPresetsValidate(t *testing.T) {
	for _, a := range append([]Arch{SMT8}, AllArchs...) {
		for _, m := range []Machine{LowEnd(a), HighEnd(a)} {
			if err := m.Validate(); err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
		}
	}
}

func TestMachines(t *testing.T) {
	low := LowEnd(SMT2)
	if low.Chips != 1 || low.Threads() != 8 {
		t.Fatalf("low-end: %d chips, %d threads", low.Chips, low.Threads())
	}
	high := HighEnd(FA4)
	if high.Chips != 4 || high.Threads() != 16 {
		t.Fatalf("high-end FA4: %d chips, %d threads", high.Chips, high.Threads())
	}
	// Paper §5.1: FA8 and SMT2 run 32 threads on the high-end machine,
	// FA4/FA2/FA1 run 16/8/4.
	wantThreads := map[string]int{"FA8": 32, "SMT2": 32, "FA4": 16, "FA2": 8, "FA1": 4}
	for name, n := range wantThreads {
		a, _ := ArchByName(name)
		if got := HighEnd(a).Threads(); got != n {
			t.Errorf("high-end %s threads = %d, want %d", name, got, n)
		}
	}
	if err := low.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Machine{Name: "bad", Chips: 0, Arch: FA8, Mem: DefaultMem()}
	if err := bad.Validate(); err == nil {
		t.Error("zero-chip machine accepted")
	}
}
