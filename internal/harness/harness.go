// Package harness drives the paper's experiments: it runs (application
// × architecture × machine) simulations, caches shared runs, measures
// the Figure 6 placements, and renders the Figure 4/5/7/8 execution-
// time breakdowns as text.
//
// Individual simulations are strictly deterministic; each runs on a
// single goroutine and the harness runs independent simulations
// concurrently across host cores.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/model"
	"clustersmt/internal/obs"
	"clustersmt/internal/prog"
	"clustersmt/internal/stats"
	"clustersmt/internal/workloads"
)

// FAFigureArchs is the architecture set of Figures 4 and 5.
var FAFigureArchs = []config.Arch{config.FA8, config.FA4, config.FA2, config.FA1, config.SMT2}

// SMTFigureArchs is the architecture set of Figures 7 and 8.
var SMTFigureArchs = []config.Arch{config.SMT8, config.SMT4, config.SMT2, config.SMT1}

// StoreFunc is the Suite.Store hook signature: given the run's identity
// in wire-expressible form (canonical app name, Table 2 architecture,
// machine class — the suite supplies its own input size) and simulate,
// the suite's own scratch or warm-start run of it, the hook returns the
// run's outcome. It may answer from a result store without calling
// simulate, or call simulate and keep what it returns. A cancellation
// must be returned errors.Is-compatible with ctx.Err().
type StoreFunc func(ctx context.Context, app string, arch config.Arch, highEnd bool, simulate func() (*core.Result, error)) (*core.Result, error)

type runKey struct {
	app      string
	clusters int
	issue    int
	tpc      int
	chips    int
	// Normalized allocation policy: two policies must never share a
	// cached result (the canonical machine encoding makes the same
	// distinction for the persistent service cache).
	policy string
	epoch  int64
}

// flight is a cancel-aware singleflight memo, the one mechanism behind
// the result cache and the warmed-parent cache. The first caller of do
// for a key owns the computation; later callers wait for it. A finished
// call answers every later caller — errors are cached like values, so a
// failing configuration is simulated once, not once per figure that
// includes it — until more than max calls have finished since, when the
// one that finished longest ago is forgotten and its key computes again
// on next use; a call still running is never forgotten. A canceled
// owner takes its slot with it, so a cancellation can never poison the
// memo: the waiters it releases are still live and retry, one of them
// becoming the new owner. A panicking computation is a failure like any
// other: its key settles with a panicError, so it takes down neither the
// process nor its waiters, and is not re-run while memoized.
type flight[K comparable, V any] struct {
	mu       sync.Mutex
	cache    map[K]*call[V]
	finished []K // keys of finished calls, oldest first
	max      int // bound on len(finished)
	// forgot, when set, is told each key whose slot is dropped (shed
	// from a full memo, or canceled). It runs under mu, so ahead of any
	// new owner of that key, and may touch what mu guards.
	forgot func(K)
}

// Memo bounds: what a long-lived daemon may retain under a stream of
// distinct jobs. A figure run (at most 200 distinct cells) never
// reaches either. Warmed parents are whole paused simulators, hence the
// smaller bound.
const (
	maxResults     = 4096
	maxWarmParents = 64
)

// call is one key's slot, registered before the computation starts;
// done is closed once val and err are set.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// do returns fn's outcome for k, running fn at most once at a time per
// key. A caller whose ctx ends while it waits on another's computation
// gets ctx.Err(), bare; fn watches its own caller's ctx itself.
func (f *flight[K, V]) do(ctx context.Context, k K, fn func() (V, error)) (V, error) {
	for {
		f.mu.Lock()
		c, ok := f.cache[k]
		if !ok {
			if f.cache == nil {
				f.cache = make(map[K]*call[V])
			}
			c = &call[V]{done: make(chan struct{})}
			f.cache[k] = c
			f.mu.Unlock()
			c.val, c.err = recovered(fn)
			f.settle(k, canceled(c.err))
			close(c.done)
			return c.val, c.err
		}
		f.mu.Unlock()
		// Another caller owns (or already finished) this key; wait for
		// it without holding anything.
		select {
		case <-c.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
		if !canceled(c.err) {
			return c.val, c.err
		}
		// The owner was canceled (and removed the slot before closing
		// done); this caller is still live, so retry — it may become
		// the new owner.
	}
}

// panicError is a computation's panic as flight.do returns it: the
// panic value and the owner goroutine's stack where it was recovered.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v\n\n%s", e.val, e.stack) }

// IsPanic reports whether err is, or wraps, a run's recovered panic
// (its text is "panic: <value>", a blank line, then the stack).
func IsPanic(err error) bool {
	var p *panicError
	return errors.As(err, &p)
}

// recovered calls fn, turning a panic into a *panicError.
func recovered[V any](fn func() (V, error)) (v V, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{p, debug.Stack()}
		}
	}()
	return fn()
}

// settle files k's finished call: a canceled one is dropped, any other
// joins the finished queue, which then sheds its oldest keys down to
// max.
func (f *flight[K, V]) settle(k K, drop bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if drop {
		f.forget(k)
		return
	}
	f.finished = append(f.finished, k)
	for len(f.finished) > f.max {
		f.forget(f.finished[0])
		f.finished = f.finished[1:]
	}
}

func (f *flight[K, V]) forget(k K) {
	delete(f.cache, k)
	if f.forgot != nil {
		f.forgot(k)
	}
}

// Suite runs and caches simulations at a fixed input size.
type Suite struct {
	Size workloads.Size
	// MaxCycles bounds each simulation (0 = core default).
	MaxCycles int64

	// AllocPolicy selects the thread-to-cluster allocation policy for
	// every simulation this suite runs ("" or "static" = the paper's
	// fixed seed placement; see internal/alloc for the registry).
	// AllocEpoch is the dynamic policies' epoch length in cycles (0 =
	// config.DefaultAllocEpoch). Set before the first Run.
	AllocPolicy string
	AllocEpoch  int64

	// MetricsInterval > 0 enables interval metrics on every simulation
	// (one obs.Frame per MetricsInterval cycles, retained in a ring of
	// MetricsRingCap frames — obs.DefaultRingCap when 0). Sampling is
	// read-only: results, including cache hits shared across figures,
	// are bit-identical with metrics on or off.
	MetricsInterval int64
	MetricsRingCap  int
	// OnFrame, when set, receives every frame of every simulation as
	// the run progresses — the progress heartbeat. Setting it without
	// MetricsInterval samples at core.DefaultMetricsInterval. It is
	// called from concurrent simulation goroutines and must be safe for
	// concurrent use; it must not block for long (it runs on the
	// simulation's critical path).
	OnFrame func(app, machine string, f obs.Frame)

	// Store, when non-nil, stands between the singleflight owner of each
	// uncached run and its simulation: the one place a run may be
	// answered without simulating, and the one place every simulated
	// result passes through on its way out (the serving subsystem backs
	// it with its two-tier result cache, so figure cells and jobs share
	// entries and a restarted daemon serves figures from disk). What the
	// hook returns is the run's outcome, memoized exactly like a local
	// simulation's (so a stored answer is still deduplicated across
	// overlapping figures, and a cancellation follows the cancel-retry
	// path). Because the hook runs on the owner side of the
	// singleflight, a burst of identical requests costs one lookup, and
	// it runs ahead of the semaphore, so a stored answer never occupies
	// a simulation slot. Set before the first Run.
	Store StoreFunc

	// WarmupCycles > 0 enables checkpoint-based warm-up sharing: for
	// workloads whose programs declare a shared prefix
	// (prog.Builder.MarkPrefix), the suite runs one parent simulation
	// per (machine, prefix) to this cycle, checkpoints it, and forks
	// every variant from the warmed parent (core.Simulator.ForkProgram)
	// instead of simulating each from cycle zero. Results stay
	// bit-identical to scratch runs; the win is wall clock when the
	// warm-up dominates and many variants share it. Workloads without a
	// prefix, and parents whose warm-up ends before this cycle, fall
	// back to scratch silently. Set before the first Run.
	WarmupCycles int64
	// Snapshots, when non-nil, persists warmed parent checkpoints so
	// later processes restore them instead of re-running the warm-up
	// (the serving subsystem backs this with its cache directory). Only
	// consulted when WarmupCycles > 0. Set before the first Run.
	Snapshots SnapshotStore

	// OnSimulate, when set, is called after every simulation this suite
	// actually executes (singleflight owners only — cache hits, shares
	// and runs the Store hook answers never fire it) with the run's
	// identity, wall-clock duration, and outcome. ctx is the owning caller's
	// context — the serving layer reads its trace ID to attribute the
	// simulate span. Must be safe for concurrent use and read-only with
	// respect to results. Set before the first Run.
	OnSimulate func(ctx context.Context, app, machine string, highEnd bool, d time.Duration, err error)

	flight[runKey, *core.Result] // the result cache: mu and cache
	sem                          chan struct{}
	// rings holds each memoized run's retained frames, under the result
	// cache's mu: a ring goes when its memo entry goes.
	rings map[runKey]runRing

	warm         flight[warmKey, *warmParent]
	warmForks    atomic.Int64
	warmRestores atomic.Int64
	sims         atomic.Int64

	allocMigrations atomic.Int64
	allocEpochs     atomic.Int64
}

// runRing is one simulated run's retained frames under the name the
// metrics accessors list it by ("app@machine").
type runRing struct {
	name string
	ring *obs.Ring
}

// NewSuite returns a Suite at the given input size, running up to
// GOMAXPROCS simulations concurrently.
func NewSuite(size workloads.Size) *Suite {
	s := &Suite{
		Size:  size,
		sem:   make(chan struct{}, runtime.GOMAXPROCS(0)),
		rings: make(map[runKey]runRing),
	}
	s.max = maxResults
	s.forgot = func(k runKey) { delete(s.rings, k) }
	s.warm.max = maxWarmParents
	return s
}

// SetParallelism bounds the number of simulations the suite runs
// concurrently (cmd/sweep's -parallel flag). It must be called before
// the first Run; changing the bound under in-flight runs would leak or
// deadlock semaphore slots, so it panics once anything is cached.
func (s *Suite) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cache) > 0 {
		panic("harness: SetParallelism after runs have started")
	}
	s.sem = make(chan struct{}, n)
}

func key(app string, arch config.Arch, chips int, a config.AllocConfig) runKey {
	return runKey{app: app, clusters: arch.Clusters, issue: arch.IssueWidth,
		tpc: arch.ThreadsPerCluster, chips: chips, policy: a.Policy, epoch: a.Epoch}
}

// machine resolves the suite's machine for one run: the paper preset
// plus the suite's allocation policy.
func (s *Suite) machine(arch config.Arch, highEnd bool) config.Machine {
	m := config.LowEnd(arch)
	if highEnd {
		m = config.HighEnd(arch)
	}
	m.Alloc = config.AllocConfig{Policy: s.AllocPolicy, Epoch: s.AllocEpoch}
	return m
}

// Run simulates app on arch (low-end: 1 chip; high-end: 4 chips),
// returning a cached result when the same physical configuration was
// already run (FA8 and SMT8 share results by construction).
func (s *Suite) Run(app workloads.Workload, arch config.Arch, highEnd bool) (*core.Result, error) {
	return s.RunContext(context.Background(), app, arch, highEnd)
}

// canceled reports whether err is a cancellation rather than a real
// simulation failure. Cancellations are never cached: the canceling
// caller's entry is removed so the next identical request re-runs.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, core.ErrInterrupted)
}

// RunContext is Run with caller cancellation: when ctx is done, the
// in-flight simulation aborts promptly (core.Simulator.Interrupt) and
// RunContext returns ctx's error. A canceled run is removed from the
// cache rather than cached, so it cannot poison later identical
// requests; waiters that were sharing the canceled run retry and one of
// them becomes the new owner. Real simulation errors are still cached
// like results (a failing configuration simulates once, not once per
// figure that includes it). Every error names the run, once.
func (s *Suite) RunContext(ctx context.Context, app workloads.Workload, arch config.Arch, highEnd bool) (*core.Result, error) {
	m := s.machine(arch, highEnd)
	k := key(app.Name, arch, m.Chips, m.Alloc.Normalize())
	named := func(err error) error { return fmt.Errorf("harness: %s on %s: %w", app.Name, m.Name, err) }
	res, err := s.do(ctx, k, func() (*core.Result, error) {
		res, err := s.runShared(ctx, k, app, arch, highEnd, m)
		if err != nil {
			// Named here so the memo holds, and every later caller gets,
			// the one error value.
			return nil, named(err)
		}
		return res, nil
	})
	if _, panicked := err.(*panicError); panicked || (err != nil && err == ctx.Err()) {
		// The run panicked past the naming above, or this caller gave up
		// waiting on another's run.
		err = named(err)
	}
	return res, err
}

// runShared is the owner half of RunContext's singleflight: it hands
// the run to the Store hook, when there is one — ahead of the
// semaphore, so a stored answer never holds a simulation slot — with
// the local path as the simulation the hook may call.
func (s *Suite) runShared(ctx context.Context, k runKey, app workloads.Workload, arch config.Arch, highEnd bool, m config.Machine) (*core.Result, error) {
	if s.Store == nil {
		return s.runOwned(ctx, k, app, m)
	}
	return s.Store(ctx, app.Name, arch, highEnd, func() (*core.Result, error) { return s.runOwned(ctx, k, app, m) })
}

// runOwned acquires a semaphore slot and simulates; it is the owner
// half of RunContext's singleflight.
func (s *Suite) runOwned(ctx context.Context, k runKey, app workloads.Workload, m config.Machine) (*core.Result, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()
	return s.simulate(ctx, k, app, m)
}

// arm applies the suite's per-run settings to a simulator about to run:
// the cycle bound, the caller's cancellation and, with sampling on, the
// frame ring it returns (nil otherwise). A forked child (fresh=false)
// already carries the warmed parent's sampler — warm-up frames
// included, so its ring matches a scratch run's — and re-enabling would
// reset the sampling phase mid-run.
func (s *Suite) arm(ctx context.Context, sim *core.Simulator, fresh bool) *obs.Ring {
	if s.MaxCycles > 0 {
		sim.MaxCycles = s.MaxCycles
	}
	sim.Interrupt = ctx.Done()
	switch {
	case s.MetricsInterval <= 0 && s.OnFrame == nil:
		return nil
	case fresh:
		return sim.EnableMetrics(s.MetricsInterval, s.MetricsRingCap)
	}
	return sim.Metrics()
}

// simulate performs one uncached simulation, starting from a shared
// warmed checkpoint when warm-up sharing is enabled and applicable
// (see warmup.go) and from cycle zero otherwise.
func (s *Suite) simulate(ctx context.Context, k runKey, app workloads.Workload, m config.Machine) (*core.Result, error) {
	p := app.Build(m.Threads(), m.Chips, s.Size)
	var sim *core.Simulator
	var err error
	pol := m.Alloc.Normalize().Policy
	if pol == "" {
		// Warmed checkpoints are shared across runs with identical
		// machine hashes under the seed placement; a non-static policy
		// changes placement (and thus warm-up) itself, so those runs
		// always start cold.
		if sim, err = s.warmStart(ctx, m, p); err != nil {
			return nil, err
		}
	}
	warmed := sim != nil
	if !warmed {
		if sim, err = core.New(m, p); err != nil {
			return nil, err
		}
		if pol == "oracle" {
			if err := s.oracleAssign(ctx, sim, m, p); err != nil {
				return nil, fmt.Errorf("oracle search: %w", err)
			}
		}
	}
	if ring := s.arm(ctx, sim, !warmed); ring != nil {
		if s.OnFrame != nil {
			appName, machine := app.Name, m.Name
			sim.OnInterval(func(f obs.Frame) { s.OnFrame(appName, machine, f) })
		}
		s.mu.Lock()
		s.rings[k] = runRing{app.Name + "@" + m.Name, ring}
		s.mu.Unlock()
	}
	s.sims.Add(1)
	t0 := time.Now()
	r, err := sim.Run()
	if s.OnSimulate != nil {
		s.OnSimulate(ctx, app.Name, m.Name, m.Chips > 1, time.Since(t0), err)
	}
	if err != nil {
		if errors.Is(err, core.ErrInterrupted) && ctx.Err() != nil {
			// Surface the caller's cancellation (errors.Is-compatible
			// with context.Canceled / DeadlineExceeded) rather than the
			// core-internal interrupt.
			return nil, ctx.Err()
		}
		return nil, err
	}
	s.allocMigrations.Add(int64(r.AllocMigrations))
	s.allocEpochs.Add(int64(r.AllocEpochs))
	return r, nil
}

// oracleAssign replaces sim's seed placement with the best static
// assignment found by profiling every canonical assignment of the same
// workload for a short prefix under the static policy
// (core.SearchStatic, at its standard budget). The throwaway search
// simulators run sim's own program p — built once, shared read-only —
// concurrently, and all abort with ctx.
func (s *Suite) oracleAssign(ctx context.Context, sim *core.Simulator, m config.Machine, p *prog.Program) error {
	sm := m
	sm.Alloc = config.AllocConfig{}
	mk := func() (*core.Simulator, error) {
		probe, err := core.New(sm, p)
		if err != nil {
			return nil, err
		}
		probe.Interrupt = ctx.Done()
		return probe, nil
	}
	best, _, err := core.SearchStatic(mk, core.SearchPrefixCycles, core.SearchMaxCandidates)
	if err != nil {
		return err
	}
	return sim.SetAssignment(best)
}

// Simulations returns how many simulations this suite actually ran on
// this host (scratch runs and forked-child runs both count; cache
// hits, singleflight shares, and runs the Store hook answers do not).
// It is the counter the service's restart tests and /healthz use to
// prove "zero simulations ran" on a fully cached request.
func (s *Suite) Simulations() int64 { return s.sims.Load() }

// AllocMigrations returns the total number of thread migrations the
// allocation subsystem performed across every simulation this suite
// ran locally (always zero under the static policy).
func (s *Suite) AllocMigrations() int64 { return s.allocMigrations.Load() }

// AllocEpochs returns the total number of allocation epoch boundaries
// evaluated across every simulation this suite ran locally.
func (s *Suite) AllocEpochs() int64 { return s.allocEpochs.Load() }

// Metrics returns the retained frame ring for the given simulated run
// ("app@machine", as listed by MetricsRuns), or nil. Note that cached
// runs simulate once: FA8 and SMT8 share one physical configuration
// and hence one ring.
func (s *Suite) Metrics(run string) *obs.Ring {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.rings {
		if r.name == run {
			return r.ring
		}
	}
	return nil
}

// MetricsRuns lists the runs with retained metrics, sorted.
func (s *Suite) MetricsRuns() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	runs := make([]string, 0, len(s.rings))
	for _, r := range s.rings {
		runs = append(runs, r.name)
	}
	sort.Strings(runs)
	return runs
}

// WriteMetricsCSV exports one run's frames ("app@machine") as CSV.
func (s *Suite) WriteMetricsCSV(w io.Writer, run string) error {
	ring := s.Metrics(run)
	if ring == nil {
		return fmt.Errorf("harness: no metrics retained for %q", run)
	}
	return ring.WriteCSV(w)
}

// WriteMetricsJSON exports one run's frames ("app@machine") as JSON.
func (s *Suite) WriteMetricsJSON(w io.Writer, run string) error {
	ring := s.Metrics(run)
	if ring == nil {
		return fmt.Errorf("harness: no metrics retained for %q", run)
	}
	return ring.WriteJSON(w)
}

// RunMatrixContext runs every (app × arch) pair concurrently and
// returns the results indexed [app][arch.Name]. Once ctx is done,
// in-flight simulations abort promptly and the matrix returns the
// cancellation error. It is safe for concurrent callers — overlapping
// matrices share cached runs through the singleflight.
func (s *Suite) RunMatrixContext(ctx context.Context, apps []workloads.Workload, archs []config.Arch, highEnd bool) (map[string]map[string]*core.Result, error) {
	type item struct {
		app  workloads.Workload
		arch config.Arch
	}
	var items []item
	for _, a := range apps {
		for _, ar := range archs {
			items = append(items, item{a, ar})
		}
	}
	out := make(map[string]map[string]*core.Result)
	for _, a := range apps {
		out[a.Name] = make(map[string]*core.Result)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, it := range items {
		wg.Add(1)
		go func(it item) {
			defer wg.Done()
			r, err := s.RunContext(ctx, it.app, it.arch, highEnd)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			out[it.app.Name][it.arch.Name] = r
		}(it)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Row is one bar of a figure: an (app, arch) cell.
type Row struct {
	App        string
	Arch       string
	Cycles     int64
	Normalized float64 // execution time relative to the figure baseline
	Breakdown  [stats.NumCategories]float64
}

// Figure is one of the paper's execution-time charts in tabular form.
type Figure struct {
	Title    string
	Baseline string // arch name each app's bars are normalized to
	Apps     []string
	Archs    []string
	Rows     []Row // len(Apps) × len(Archs), app-major
}

// Get returns the row for (app, arch); it panics on unknown names
// (figures are built internally with fixed sets).
func (f *Figure) Get(app, arch string) Row {
	for _, r := range f.Rows {
		if r.App == app && r.Arch == arch {
			return r
		}
	}
	panic(fmt.Sprintf("harness: figure %q has no row (%s, %s)", f.Title, app, arch))
}

// Best returns the architecture with the fewest cycles for app.
func (f *Figure) Best(app string) string {
	best, bestCycles := "", int64(0)
	for _, r := range f.Rows {
		if r.App != app {
			continue
		}
		if best == "" || r.Cycles < bestCycles {
			best, bestCycles = r.Arch, r.Cycles
		}
	}
	return best
}

// BestFA returns the best fixed-assignment architecture for app
// (excludes SMT rows).
func (f *Figure) BestFA(app string) string {
	best, bestCycles := "", int64(0)
	for _, r := range f.Rows {
		if r.App != app || !strings.HasPrefix(r.Arch, "FA") {
			continue
		}
		if best == "" || r.Cycles < bestCycles {
			best, bestCycles = r.Arch, r.Cycles
		}
	}
	return best
}

// Render formats the figure the way the paper's charts read: one block
// per application, one line per architecture with the normalized
// execution time and the slot breakdown.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (execution time normalized to %s = 100)\n", f.Title, f.Baseline)
	cats := stats.AllCategories()
	fmt.Fprintf(&b, "%-8s %-5s %6s %9s ", "app", "arch", "norm", "cycles")
	for _, c := range cats {
		fmt.Fprintf(&b, "%7s", c)
	}
	b.WriteString("\n")
	for _, app := range f.Apps {
		for _, arch := range f.Archs {
			r := f.Get(app, arch)
			fmt.Fprintf(&b, "%-8s %-5s %6.0f %9d ", r.App, r.Arch, r.Normalized, r.Cycles)
			for _, c := range cats {
				fmt.Fprintf(&b, "%6.1f%%", 100*r.Breakdown[c])
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// buildFigure assembles a Figure from a result matrix.
func buildFigure(title string, apps []workloads.Workload, archs []config.Arch,
	res map[string]map[string]*core.Result) *Figure {
	f := &Figure{Title: title, Baseline: archs[0].Name}
	for _, a := range apps {
		f.Apps = append(f.Apps, a.Name)
	}
	for _, ar := range archs {
		f.Archs = append(f.Archs, ar.Name)
	}
	for _, a := range apps {
		base := res[a.Name][archs[0].Name]
		for _, ar := range archs {
			r := res[a.Name][ar.Name]
			row := Row{
				App:        a.Name,
				Arch:       ar.Name,
				Cycles:     r.Cycles,
				Normalized: 100 * float64(r.Cycles) / float64(base.Cycles),
			}
			row.Breakdown = r.Slots.Fractions()
			f.Rows = append(f.Rows, row)
		}
	}
	return f
}

// paperFigures is the paper's four execution-time charts by figure
// number: Figures 4/5 compare the FA processors with the clustered SMT2,
// Figures 7/8 the clustered with the centralized SMTs, each pair on the
// low-end and then the high-end machine.
var paperFigures = map[int]struct {
	title   string
	archs   []config.Arch
	highEnd bool
}{
	4: {"Figure 4: FA vs clustered SMT, low-end machine", FAFigureArchs, false},
	5: {"Figure 5: FA vs clustered SMT, high-end machine", FAFigureArchs, true},
	7: {"Figure 7: clustered vs centralized SMT, low-end machine", SMTFigureArchs, false},
	8: {"Figure 8: clustered vs centralized SMT, high-end machine", SMTFigureArchs, true},
}

// Figure reproduces paper figure n (4, 5, 7 or 8) over the six
// applications, each bar normalized to the figure's first architecture.
func (s *Suite) Figure(ctx context.Context, n int) (*Figure, error) {
	f, ok := paperFigures[n]
	if !ok {
		return nil, fmt.Errorf("harness: no figure %d (want 4, 5, 7 or 8)", n)
	}
	apps := workloads.All()
	res, err := s.RunMatrixContext(ctx, apps, f.archs, f.highEnd)
	if err != nil {
		return nil, err
	}
	return buildFigure(f.title, apps, f.archs, res), nil
}

// Placement measures each application's Figure 6 point: thread
// parallelism as the average running threads on FA8 (the architecture
// enabling the most thread parallelism) and per-thread ILP as the
// useful IPC per running thread on FA1 (the architecture enabling the
// most ILP).
func (s *Suite) Placement(ctx context.Context, highEnd bool) (map[string]model.Point, error) {
	apps := workloads.All()
	res, err := s.RunMatrixContext(ctx, apps, []config.Arch{config.FA8, config.FA1}, highEnd)
	if err != nil {
		return nil, err
	}
	chips := 1
	if highEnd {
		chips = config.HighEnd(config.FA8).Chips
	}
	out := make(map[string]model.Point, len(apps))
	for _, a := range apps {
		fa8 := res[a.Name]["FA8"]
		fa1 := res[a.Name]["FA1"]
		ilp := fa1.IPC
		if fa1.AvgRunningThreads > 1 {
			ilp = fa1.IPC / fa1.AvgRunningThreads
		}
		out[a.Name] = model.Point{
			// Per-chip average, so high-end points land on the same
			// 0–8 chart as Figure 6 of the paper.
			Threads: fa8.AvgRunningThreads / float64(chips),
			ILP:     ilp,
		}
	}
	return out, nil
}

// RenderPlacement formats a Figure 6 chart plus the measured points.
func RenderPlacement(points map[string]model.Point, proc model.Proc) string {
	var b strings.Builder
	b.WriteString(model.Chart(proc, points))
	names := make([]string, 0, len(points))
	for n := range points {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := points[n]
		fmt.Fprintf(&b, "%-8s threads=%.2f ilp=%.2f region(%s)=%s\n",
			n, p.Threads, p.ILP, proc.Name, proc.Classify(p))
	}
	return b.String()
}
