package harness

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"clustersmt/internal/config"
	"clustersmt/internal/model"
	"clustersmt/internal/obs"
	"clustersmt/internal/stats"
	"clustersmt/internal/workloads"
)

func TestSuiteCachesRuns(t *testing.T) {
	s := NewSuite(workloads.SizeTest)
	w, _ := workloads.ByName("vpenta")
	r1, err := s.Run(w, config.FA8, false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(w, config.FA8, false)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical run not cached")
	}
	// SMT8 aliases FA8 physically: must share the cache entry.
	r3, err := s.Run(w, config.SMT8, false)
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Fatal("SMT8 did not reuse the FA8 run")
	}

	// A non-preset machine is a run of its own: an SMT1 variant with the
	// clustered designs' 8/8/8 units shares SMT1's name, cluster count,
	// issue width and contexts, but not its result.
	swim, _ := workloads.ByName("swim")
	before := s.Simulations()
	smt1, err := s.Run(swim, config.SMT1, false)
	if err != nil {
		t.Fatal(err)
	}
	wide := config.SMT1
	wide.IntUnits, wide.LdStUnits, wide.FPUnits = 8, 8, 8
	got, err := s.Run(swim, wide, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSuite(workloads.SizeTest).Run(swim, wide, false)
	if err != nil {
		t.Fatal(err)
	}
	if got == smt1 || got.Cycles != want.Cycles {
		t.Fatalf("SMT1 with 8/8/8 units: %d cycles, want its own %d (SMT1: %d)", got.Cycles, want.Cycles, smt1.Cycles)
	}
	if n := s.Simulations() - before; n != 2 {
		t.Fatalf("SMT1 and its variant ran %d simulations, want 2", n)
	}
	if r, err := s.Run(w, config.SMT8, false); err != nil || r != r1 {
		t.Fatalf("SMT8 no longer reuses the FA8 run (err %v)", err)
	}
}

func TestFigureAccessors(t *testing.T) {
	s := NewSuite(workloads.SizeTest)
	fig, err := s.Figure(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Apps) != 6 || len(fig.Archs) != 5 {
		t.Fatalf("figure shape %dx%d", len(fig.Apps), len(fig.Archs))
	}
	if len(fig.Rows) != 30 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	r := fig.Get("swim", "FA8")
	if r.Normalized != 100 {
		t.Fatalf("baseline normalization = %v", r.Normalized)
	}
	if best := fig.Best("swim"); best == "" {
		t.Fatal("no best")
	}
	if bf := fig.BestFA("swim"); strings.HasPrefix(bf, "SMT") {
		t.Fatalf("bestFA returned %s", bf)
	}
	out := fig.Render()
	for _, app := range fig.Apps {
		if !strings.Contains(out, app) {
			t.Errorf("render missing %s", app)
		}
	}
}

func TestFigureGetPanicsOnUnknown(t *testing.T) {
	fig := &Figure{Title: "t"}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	fig.Get("nope", "FA8")
}

func TestPlacementShape(t *testing.T) {
	s := NewSuite(workloads.SizeTest)
	pts, err := s.Placement(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("placements = %d", len(pts))
	}
	for app, p := range pts {
		if p.Threads <= 0 || p.Threads > 8.01 {
			t.Errorf("%s: threads = %v out of range", app, p.Threads)
		}
		if p.ILP <= 0 || p.ILP > 8.01 {
			t.Errorf("%s: ILP = %v out of range", app, p.ILP)
		}
	}
	out := RenderPlacement(pts, model.FromArch(config.SMT2))
	if !strings.Contains(out, "ocean") {
		t.Fatal("placement render missing app")
	}
}

// --- Paper-claims tests (the reproduction's acceptance criteria) ---
//
// These run the reference-size experiments on one shared suite, so the
// first to ask for a cell pays for it; skipped under -short.

func refSuite(t *testing.T) *Suite {
	t.Helper()
	if testing.Short() {
		t.Skip("reference-size experiment; skipped with -short")
	}
	return sharedRefSuite()
}

// sharedRefSuite is the one ref-size suite of the package's paper
// tests: they only read it, so its memo simulates each cell once.
var sharedRefSuite = sync.OnceValue(func() *Suite { return NewSuite(workloads.SizeRef) })

// TestPaperFigure4SweetSpots asserts the low-end FA sweet spots the
// paper reports: FA8 for vpenta and ocean, FA4 for swim and fmm, FA2
// for tomcatv and mgrid — and that the clustered SMT2 takes the fewest
// cycles for every application.
func TestPaperFigure4SweetSpots(t *testing.T) {
	fig, err := refSuite(t).Figure(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"vpenta": "FA8", "ocean": "FA8",
		"swim": "FA4", "fmm": "FA4",
		"tomcatv": "FA2", "mgrid": "FA2",
	}
	for app, arch := range want {
		if got := fig.BestFA(app); got != arch {
			t.Errorf("%s: best FA = %s, want %s (paper Fig. 4)", app, got, arch)
		}
		if best := fig.Best(app); best != "SMT2" {
			t.Errorf("%s: overall best = %s, want SMT2 (paper Fig. 4)", app, best)
		}
	}
}

// TestPaperFigure4SMT2Advantage asserts the paper's quantitative
// headline: on average SMT2 takes noticeably fewer cycles than the best
// per-application FA processor (the paper measures 13%; we accept 5-25%).
func TestPaperFigure4SMT2Advantage(t *testing.T) {
	fig, err := refSuite(t).Figure(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, app := range fig.Apps {
		bestFA := fig.Get(app, fig.BestFA(app))
		smt2 := fig.Get(app, "SMT2")
		sum += 1 - float64(smt2.Cycles)/float64(bestFA.Cycles)
	}
	avg := sum / float64(len(fig.Apps))
	if avg < 0.05 || avg > 0.25 {
		t.Errorf("SMT2 advantage over best FA = %.1f%%, want 5-25%% (paper: 13%%)", 100*avg)
	}
}

// TestPaperFigure5HighEnd asserts the high-end shifts the paper
// describes: the sweet spot moves to wide-issue FAs for the low-
// parallelism applications (FA1 for tomcatv and mgrid), the highly
// parallel applications keep FA8, and SMT2 again has the lowest
// execution time everywhere.
func TestPaperFigure5HighEnd(t *testing.T) {
	fig, err := refSuite(t).Figure(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for app, arch := range map[string]string{"tomcatv": "FA1", "mgrid": "FA1"} {
		if got := fig.BestFA(app); got != arch {
			t.Errorf("%s: best FA = %s, want %s (paper Fig. 5)", app, got, arch)
		}
	}
	for _, app := range []string{"vpenta", "ocean"} {
		if got := fig.BestFA(app); got != "FA8" {
			t.Errorf("%s: best FA = %s, want FA8 (paper Fig. 5)", app, got)
		}
	}
	for _, app := range fig.Apps {
		if best := fig.Best(app); best != "SMT2" {
			t.Errorf("%s: overall best = %s, want SMT2 (paper Fig. 5)", app, best)
		}
	}
}

// TestPaperFigure7Clustering asserts the Figure 7 structure: execution
// time improves monotonically from SMT8 through SMT4 to SMT2 for every
// application, and SMT2 lands within the paper's 0-9% band of the fully
// centralized SMT1 — or beats it (our kernels are chain-heavier than
// the originals, which exposes SMT1's narrower Table 2 FU mix; see
// EXPERIMENTS.md).
func TestPaperFigure7Clustering(t *testing.T) {
	fig, err := refSuite(t).Figure(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range fig.Apps {
		smt8 := fig.Get(app, "SMT8").Cycles
		smt4 := fig.Get(app, "SMT4").Cycles
		smt2 := fig.Get(app, "SMT2").Cycles
		smt1 := fig.Get(app, "SMT1").Cycles
		if smt4 > smt8 {
			t.Errorf("%s: SMT4 (%d) worse than SMT8 (%d)", app, smt4, smt8)
		}
		if float64(smt2) > 1.03*float64(smt4) {
			t.Errorf("%s: SMT2 (%d) worse than SMT4 (%d)", app, smt2, smt4)
		}
		// SMT2 within 10% of SMT1, or better.
		if float64(smt2) > 1.10*float64(smt1) {
			t.Errorf("%s: SMT2 (%d) more than 10%% behind SMT1 (%d)", app, smt2, smt1)
		}
	}
}

// TestPaperFigure6Placements asserts the qualitative layout of
// Figure 6a: tomcatv leftmost; vpenta and ocean in the lower right
// (most threads, least ILP); every application inside SMT2's optimal
// region except possibly tomcatv.
func TestPaperFigure6Placements(t *testing.T) {
	pts, err := refSuite(t).Placement(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	for app, p := range pts {
		if app == "tomcatv" {
			continue
		}
		if pts["tomcatv"].Threads >= p.Threads {
			t.Errorf("tomcatv (%.2f threads) not leftmost vs %s (%.2f)",
				pts["tomcatv"].Threads, app, p.Threads)
		}
	}
	for _, app := range []string{"vpenta", "ocean"} {
		if pts[app].Threads < 6 {
			t.Errorf("%s: threads = %.2f, want > 6", app, pts[app].Threads)
		}
		if pts[app].ILP > 2 {
			t.Errorf("%s: ILP = %.2f, want < 2", app, pts[app].ILP)
		}
	}
	smt2 := model.FromArch(config.SMT2)
	for app, p := range pts {
		if r := smt2.Classify(p); r != model.RegionOptimal && app != "tomcatv" {
			t.Errorf("%s: region = %v, want optimal", app, r)
		}
	}
}

// TestPaperFigure6HighEndShift asserts that the high-end points move
// left and down relative to the low-end points (§5.1.1).
func TestPaperFigure6HighEndShift(t *testing.T) {
	s := refSuite(t)
	low, err := s.Placement(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Placement(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	movedLeft, movedDown := 0, 0
	for app := range low {
		if high[app].Threads < low[app].Threads+0.01 {
			movedLeft++
		}
		if high[app].ILP < low[app].ILP+0.01 {
			movedDown++
		}
	}
	if movedLeft < 4 {
		t.Errorf("only %d/6 apps moved left on the high-end machine", movedLeft)
	}
	if movedDown < 4 {
		t.Errorf("only %d/6 apps moved down on the high-end machine", movedDown)
	}
}

// TestPaperUShape asserts the Figure 4 "U-shape" the paper describes:
// for the mid-parallelism applications, both FA8 (too narrow) and FA1
// (too few threads) are worse than the interior sweet spot.
func TestPaperUShape(t *testing.T) {
	fig, err := refSuite(t).Figure(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"swim", "tomcatv", "mgrid", "fmm"} {
		best := fig.Get(app, fig.BestFA(app)).Cycles
		fa8 := fig.Get(app, "FA8").Cycles
		fa1 := fig.Get(app, "FA1").Cycles
		if fa8 <= best || fa1 <= best {
			t.Errorf("%s: no U-shape (FA8=%d best=%d FA1=%d)", app, fa8, best, fa1)
		}
	}
}

// TestPaperConclusionCycleTime asserts the paper's §5.2/§6 bottom line:
// once the Palacharla/Jouppi cycle-time model is applied (4-issue
// clusters clock ~2x an 8-issue core), the clustered SMT2 has the best
// — or within 2% of the best — wall-clock time for every application on
// both machines, making it the most cost-effective organization.
func TestPaperConclusionCycleTime(t *testing.T) {
	s := refSuite(t)
	for _, highEnd := range []bool{false, true} {
		c, err := s.Conclusion(context.Background(), highEnd)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range c.Apps {
			best := c.Get(app, c.Best(app)).AdjustedTime
			smt2 := c.Get(app, "SMT2").AdjustedTime
			if smt2 > 1.02*best {
				t.Errorf("highEnd=%v %s: SMT2 adjusted time %.0f vs best %s %.0f",
					highEnd, app, smt2, c.Best(app), best)
			}
		}
	}
}

// TestAdjustClockAlgebra checks the adjustment arithmetic on a
// synthetic figure.
func TestAdjustClockAlgebra(t *testing.T) {
	fig := &Figure{
		Title:    "t",
		Baseline: "FA8",
		Apps:     []string{"x"},
		Archs:    []string{"FA8", "FA2", "SMT1"},
		Rows: []Row{
			{App: "x", Arch: "FA8", Cycles: 1000},
			{App: "x", Arch: "FA2", Cycles: 900},
			{App: "x", Arch: "SMT1", Cycles: 600},
		},
	}
	c := AdjustClock(fig)
	// FA8 (1-issue clusters) and FA2 (4-issue) run at full clock;
	// SMT1's 8-issue cluster pays 2x cycle time.
	if got := c.Get("x", "FA2").Normalized; got != 90 {
		t.Errorf("FA2 normalized = %v, want 90", got)
	}
	if got := c.Get("x", "SMT1").Normalized; got != 120 {
		t.Errorf("SMT1 normalized = %v, want 120 (600 cycles x 2)", got)
	}
	if best := c.Best("x"); best != "FA2" {
		t.Errorf("best = %s", best)
	}
	if c.Render() == "" {
		t.Error("empty render")
	}
}

func TestRenderBars(t *testing.T) {
	s := NewSuite(workloads.SizeTest)
	fig, err := s.Figure(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	out := fig.RenderBars()
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "U") {
		t.Fatalf("bars missing content:\n%s", out)
	}
	for _, app := range fig.Apps {
		if !strings.Contains(out, app) {
			t.Errorf("bars missing %s", app)
		}
	}
}

func TestStackedBarExactWidth(t *testing.T) {
	var fr [stats.NumCategories]float64
	fr[stats.Useful] = 0.5
	fr[stats.Sync] = 0.3
	fr[stats.Data] = 0.2
	for _, w := range []int{1, 7, 40, 123} {
		bar := stackedBar(fr, w)
		if len(bar) != w {
			t.Errorf("width %d: bar length %d", w, len(bar))
		}
	}
	if stackedBar(fr, 0) != "" {
		t.Error("zero width should be empty")
	}
	var zero [stats.NumCategories]float64
	if got := stackedBar(zero, 5); got != "     " {
		t.Errorf("zero fractions bar = %q", got)
	}
}

// TestPaperModelConsistency reproduces §5.1.1: the analytical model's
// per-application best-FA prediction from the measured (threads × ILP)
// points must agree with the simulated Figure 4 winners for most
// applications (the paper reports full qualitative consistency; we
// require at least 4 of 6 — the model ignores cache effects and serial
// sections by design).
func TestPaperModelConsistency(t *testing.T) {
	v, err := refSuite(t).ValidateModel(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Agreements(); got < 4 {
		t.Errorf("model-vs-simulation agreement %d/6, want >= 4:\n%s", got, v.Render())
	}
	if v.Render() == "" {
		t.Error("empty render")
	}
}

// TestConcurrentSuiteDeterminism: the suite runs simulations on
// goroutines; results must be identical to a second, fresh suite (the
// simulations themselves are single-goroutine and deterministic).
func TestConcurrentSuiteDeterminism(t *testing.T) {
	run := func() map[string]int64 {
		s := NewSuite(workloads.SizeTest)
		fig, err := s.Figure(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for _, r := range fig.Rows {
			out[r.App+"/"+r.Arch] = r.Cycles
		}
		return out
	}
	a, b := run(), run()
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %d vs %d across suites", k, v, b[k])
		}
	}
}

// TestExtendedEvaluationExtras runs the two extension kernels across
// the Figure 4 architecture set and checks the expected structure:
// radix (integer, fully parallel, no long chains) and lu (tapering
// parallelism) must both run everywhere, with the clustered SMT2 at or
// near the front.
func TestExtendedEvaluationExtras(t *testing.T) {
	s := NewSuite(workloads.SizeTest)
	res, err := s.RunMatrixContext(context.Background(), workloads.Extras(), FAFigureArchs, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads.Extras() {
		best, bestCycles := "", int64(0)
		for arch, r := range res[w.Name] {
			if r.Committed == 0 {
				t.Errorf("%s/%s: nothing committed", w.Name, arch)
			}
			if best == "" || r.Cycles < bestCycles {
				best, bestCycles = arch, r.Cycles
			}
		}
		smt2 := res[w.Name]["SMT2"].Cycles
		if float64(smt2) > 1.15*float64(bestCycles) {
			t.Errorf("%s: SMT2 (%d cycles) more than 15%% behind best %s (%d)",
				w.Name, smt2, best, bestCycles)
		}
	}
}

// TestSuiteMetricsAndHeartbeat wires the observability fields through a
// concurrent matrix run: every simulation must retain a ring, the
// OnFrame heartbeat must see every frame (it runs from concurrent
// simulation goroutines — this test is part of the -race gate), the
// per-run exports must produce parseable CSV and JSON, and results must
// stay bit-identical to a suite without metrics.
func TestSuiteMetricsAndHeartbeat(t *testing.T) {
	apps := []workloads.Workload{}
	for _, name := range []string{"vpenta", "fmm"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, w)
	}
	archs := []config.Arch{config.SMT2, config.FA4}

	plain := NewSuite(workloads.SizeTest)
	ref, err := plain.RunMatrixContext(context.Background(), apps, archs, false)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSuite(workloads.SizeTest)
	s.MetricsInterval = 500
	var mu sync.Mutex
	beats := map[string]int{}
	s.OnFrame = func(app, machine string, f obs.Frame) {
		mu.Lock()
		beats[app+"@"+machine]++
		mu.Unlock()
	}
	got, err := s.RunMatrixContext(context.Background(), apps, archs, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps {
		for _, ar := range archs {
			if !reflect.DeepEqual(ref[a.Name][ar.Name], got[a.Name][ar.Name]) {
				t.Errorf("%s on %s: result with suite metrics differs from plain run", a.Name, ar.Name)
			}
		}
	}

	runs := s.MetricsRuns()
	if len(runs) != len(apps)*len(archs) {
		t.Fatalf("retained metrics for %d runs, want %d: %v", len(runs), len(apps)*len(archs), runs)
	}
	for _, run := range runs {
		ring := s.Metrics(run)
		if ring == nil || ring.Len() == 0 {
			t.Fatalf("%s: no frames retained", run)
		}
		if beats[run] != ring.Pushed() {
			t.Errorf("%s: heartbeat saw %d frames, ring pushed %d", run, beats[run], ring.Pushed())
		}
		var csvBuf, jsonBuf bytes.Buffer
		if err := ring.WriteCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		rd := csv.NewReader(&csvBuf)
		rd.Comment = '#' // retention-accounting comment line
		if recs, err := rd.ReadAll(); err != nil {
			t.Fatalf("%s: CSV export unparseable: %v", run, err)
		} else if len(recs) != ring.Len()+1 {
			t.Errorf("%s: CSV has %d records, want header+%d", run, len(recs), ring.Len())
		}
		if err := ring.WriteJSON(&jsonBuf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Frames []obs.Frame `json:"frames"`
		}
		if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: JSON export unparseable: %v", run, err)
		}
	}
	if s.Metrics("nope@low-end/SMT2") != nil {
		t.Error("unknown run returned a ring")
	}
}

// TestFramesPublishedWithResult: a run's frames are published with its
// result, not before. A frame callback that lists the retained runs
// while the run is in flight finds none (the listing never reads a
// ring still being written), and once the run is done it is listed,
// under "app@machine" at its own size only.
func TestFramesPublishedWithResult(t *testing.T) {
	w, err := workloads.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(workloads.SizeTest)
	s.MetricsInterval = 500
	var inFlight []string
	var once sync.Once
	s.OnFrame = func(app, machine string, f obs.Frame) {
		once.Do(func() { inFlight = s.MetricsRuns() })
	}
	if _, err := s.Run(w, config.SMT2, false); err != nil {
		t.Fatal(err)
	}
	if inFlight == nil {
		t.Fatal("no frame reached OnFrame")
	}
	if len(inFlight) != 0 {
		t.Fatalf("in-flight run listed: %v", inFlight)
	}
	const run = "ocean@low-end/SMT2"
	if got := s.MetricsRuns(); !reflect.DeepEqual(got, []string{run}) || s.Metrics(run) == nil {
		t.Fatalf("finished run not listed with its frames: %v", got)
	}
	if ref := s.At(workloads.SizeRef); len(ref.MetricsRuns()) != 0 || ref.Metrics(run) != nil {
		t.Fatalf("test-size run listed at ref size: %v", ref.MetricsRuns())
	}
	// A run that fails keeps the frames it took, for diagnosis.
	failing := NewSuite(workloads.SizeTest)
	failing.MetricsInterval = 100
	failing.MaxCycles = 1000
	if _, err := failing.Run(w, config.SMT2, false); err == nil {
		t.Fatal("run past MaxCycles did not fail")
	}
	if ring := failing.Metrics(run); ring == nil || ring.Len() == 0 {
		t.Fatalf("failed run lost its frames: listed %v", failing.MetricsRuns())
	}
}

// TestFigureTable pins what Figure(ctx, n) builds for each paper figure
// — title, baseline, machine and architecture columns — against the
// literals of the per-figure functions it replaced, and the error for a
// number the paper has no chart for.
func TestFigureTable(t *testing.T) {
	fa := []string{"FA8", "FA4", "FA2", "FA1", "SMT2"}
	smt := []string{"SMT8", "SMT4", "SMT2", "SMT1"}
	s := NewSuite(workloads.SizeTest)
	for _, tc := range []struct {
		n       int
		title   string
		archs   []string
		highEnd bool
	}{
		{4, "Figure 4: FA vs clustered SMT, low-end machine", fa, false},
		{5, "Figure 5: FA vs clustered SMT, high-end machine", fa, true},
		{7, "Figure 7: clustered vs centralized SMT, low-end machine", smt, false},
		{8, "Figure 8: clustered vs centralized SMT, high-end machine", smt, true},
	} {
		fig, err := s.Figure(context.Background(), tc.n)
		if err != nil {
			t.Fatalf("figure %d: %v", tc.n, err)
		}
		if fig.Title != tc.title || fig.Baseline != tc.archs[0] || !reflect.DeepEqual(fig.Archs, tc.archs) {
			t.Errorf("figure %d: title %q baseline %s archs %v, want %q %s %v",
				tc.n, fig.Title, fig.Baseline, fig.Archs, tc.title, tc.archs[0], tc.archs)
		}
		if len(fig.Apps) != 6 || len(fig.Rows) != 6*len(tc.archs) {
			t.Errorf("figure %d: %d apps, %d rows", tc.n, len(fig.Apps), len(fig.Rows))
		}
		// The machine shows in the cycle counts: the cell is the one a
		// direct run on that machine produces.
		w, _ := workloads.ByName("swim")
		direct, err := s.Run(w, config.SMT2, tc.highEnd)
		if err != nil {
			t.Fatal(err)
		}
		if got := fig.Get("swim", "SMT2").Cycles; got != direct.Cycles {
			t.Errorf("figure %d: swim/SMT2 = %d cycles, want %d (highEnd=%v)", tc.n, got, direct.Cycles, tc.highEnd)
		}
	}
	if _, err := s.Figure(context.Background(), 6); err == nil || err.Error() != "harness: no figure 6 (want 4, 5, 7 or 8)" {
		t.Errorf("figure 6: err = %v", err)
	}
}
