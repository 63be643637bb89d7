package harness

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/workloads"
)

// TestAllocFigureRows runs the allocation figure's cheap test-size rows
// concurrently through Suite.allocRow and pins their cycles and
// migrations, column by column in AllocPolicies order, and the runs
// each row costs: five, or four where the search finds one assignment
// for both worst and oracle (high-end FA2 among them), so the two
// columns are one run. It then holds the figure to the memo: a second
// pass over the rows simulates and searches nothing, and every
// simulated run keeps its frames under a name of its own that
// paperfigs -metrics can write as a file.
func TestAllocFigureRows(t *testing.T) {
	rows := []struct {
		m          config.Machine
		cycles     [5]int64
		migrations [5]uint64
		runs       int
	}{
		{config.LowEnd(config.FA8), [5]int64{46534, 46534, 46534, 46534, 46534}, [5]uint64{}, 4},
		{config.LowEnd(config.FA4), [5]int64{26485, 26485, 26485, 26485, 26485}, [5]uint64{}, 4},
		{config.LowEnd(config.FA2), [5]int64{16023, 16023, 16023, 16023, 16023}, [5]uint64{}, 4},
		{config.LowEnd(config.FA1), [5]int64{8631, 8631, 8631, 8631, 8631}, [5]uint64{}, 4},
		{config.LowEnd(config.SMT1), [5]int64{19725, 19725, 19725, 19725, 19725}, [5]uint64{}, 4},
		{config.LowEnd(config.SMT4), [5]int64{26936, 34764, 27691, 27691, 26801}, [5]uint64{2: 2, 3: 2}, 5},
		{config.LowEnd(config.SMT2), [5]int64{19796, 26692, 22082, 22082, 16366}, [5]uint64{2: 3, 3: 3}, 5},
		{config.HighEnd(config.FA2), [5]int64{16505, 16016, 16016, 16639, 16016}, [5]uint64{3: 2}, 4},
		{config.HighEnd(config.FA1), [5]int64{13453, 13453, 13453, 13453, 13453}, [5]uint64{}, 4},
	}
	ctx := context.Background()
	s := NewSuite(workloads.SizeTest)
	s.MetricsInterval = 5000
	searches := func() int { // searches run: each finished one is memoized
		s.searched.mu.Lock()
		defer s.searched.mu.Unlock()
		return len(s.searched.finished)
	}
	pass := func() []AllocRow {
		t.Helper()
		got := make([]AllocRow, len(rows))
		if err := each(len(rows), func(i int) (err error) {
			got[i], err = s.allocRow(ctx, rows[i].m)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := pass()
	names := s.MetricsRuns() // one per simulated run, so per key
	for i, r := range rows {
		for j, c := range first[i].Cells {
			if c.Policy != AllocPolicies[j] || c.Cycles != r.cycles[j] || c.Migrations != r.migrations[j] {
				t.Errorf("%s %s: %d cycles, %d migrations; want %d, %d",
					r.m.Name, AllocPolicies[j], c.Cycles, c.Migrations, r.cycles[j], r.migrations[j])
			}
		}
		prefix := allocMixJobs(r.m.Threads(), s.Size).name + "@" + r.m.Name + "/"
		runs := 0
		for _, name := range names {
			if strings.HasPrefix(name, prefix) {
				runs++
			}
		}
		if runs != r.runs {
			t.Errorf("%s: %d runs, want %d", r.m.Name, runs, r.runs)
		}
	}
	sims, searched := s.Simulations(), searches()
	if int64(len(names)) != sims || searched != len(rows) {
		t.Errorf("%d metric rings for %d simulations, %d searches for %d rows", len(names), sims, searched, len(rows))
	}

	if again := pass(); !reflect.DeepEqual(again, first) {
		t.Errorf("second pass differs:\n%+v\n%+v", again, first)
	}
	if n, m := s.Simulations(), searches(); n != sims || m != searched {
		t.Errorf("second pass ran %d simulations and %d searches, want none", n-sims, m-searched)
	}

	dir := t.TempDir()
	flat := strings.NewReplacer("@", "_", "/", "_") // as paperfigs -metrics names its files
	for i, name := range names {
		if i > 0 && name == names[i-1] {
			t.Errorf("two runs share the metrics name %q", name)
		}
		f, err := os.Create(filepath.Join(dir, flat.Replace(name)+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Metrics(name).WriteCSV(f); err != nil {
			t.Error(err)
		}
		f.Close()
	}
}
