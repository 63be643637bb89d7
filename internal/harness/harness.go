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
	"cmp"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
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

// StoreFunc is the Suite.Store hook signature: given the run's key
// (RunHash), its identity in wire-expressible form (canonical app name,
// architecture, machine class, input size) and simulate, the suite's
// own scratch or warm-start run of it, the hook returns the run's
// outcome. It may answer from a result store without calling simulate,
// or call simulate and keep what it returns. A cancellation must be
// returned errors.Is-compatible with ctx.Err().
type StoreFunc func(ctx context.Context, key [32]byte, app string, arch config.Arch, highEnd bool, size workloads.Size, simulate func() (*core.Result, error)) (*core.Result, error)

// RunHash is a run's identity: SHA-256 over a versioned, field-ordered
// encoding of the workload name, the input size and the machine's
// canonical form (config.Machine.AppendCanonical). It keys the suite's
// memos and, as a job's hash, the serving subsystem's result cache and
// log, so these bytes must not drift: a change orphans every stored
// result. The canonical form leaves names out and carries a dynamic
// allocation policy and its epoch, so FA8 and SMT8 share one run, two
// policies never do, and neither does any pair of machines that differ
// in a physical field.
func RunHash(app string, size workloads.Size, m config.Machine) [32]byte {
	var buf [1024]byte // room for a long app name beside any preset machine
	b := append(buf[:0], "clustersmt.Job/v1\napp="...)
	b = strconv.AppendQuote(b, app)
	b = append(b, "\nsize="...)
	b = append(b, size.String()...)
	b = append(b, '\n')
	return sha256.Sum256(m.AppendCanonical(b))
}

// runKey is a memo key: the run's RunHash (its app a single program's
// name, or a mix's job names joined by "+") and start, "" for a
// single-program run and a mix's installed start assignment ("seed" for
// the seed placement) otherwise. size is in the hash too, and kept
// beside it so a suite can list the runs at its own size (eachFramed).
type runKey struct {
	size  workloads.Size
	hash  [32]byte
	start string
}

func key(app string, size workloads.Size, m config.Machine) runKey {
	return runKey{size: size, hash: RunHash(app, size, m)}
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
}

// Memo bounds: what a long-lived daemon may retain under a stream of
// distinct jobs, whatever input sizes they ask for (the sizes share one
// memo, Suite.At). A figure run (at most 200 distinct cells) never
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
		delete(f.cache, k)
		return
	}
	f.finished = append(f.finished, k)
	for len(f.finished) > f.max {
		delete(f.cache, f.finished[0])
		f.finished = f.finished[1:]
	}
}

// Suite runs and caches simulations at a fixed input size. The suites
// At returns for other sizes share its memos, simulation slots and
// counters.
type Suite struct {
	Size workloads.Size
	// MaxCycles bounds each simulation (0 = core default).
	MaxCycles int64

	// MetricsInterval > 0 enables interval metrics on every simulation
	// (one obs.Frame per MetricsInterval cycles, retained in a ring of
	// obs.DefaultRingCap frames). Sampling is read-only: results,
	// including cache hits shared across figures, are bit-identical with
	// metrics on or off.
	MetricsInterval int64
	// OnFrame, when set, receives every frame of every simulation as
	// the run progresses — the progress heartbeat. Setting it without
	// MetricsInterval samples at core.DefaultMetricsInterval. It is
	// called from concurrent simulation goroutines and must be safe for
	// concurrent use; it must not block for long (it runs on the
	// simulation's critical path).
	OnFrame func(app, machine string, f obs.Frame)

	// Store, when non-nil, stands between the singleflight owner of
	// each uncached single-program run and its simulation: the one place
	// a run may be answered without simulating, and the one place every
	// single-program run's result passes through on its way out (the
	// serving subsystem backs it with its two-tier result cache, so
	// figure cells and jobs share entries and a restarted daemon serves
	// figures from disk). Multiprogrammed runs (the allocation figure)
	// skip it: its (app, arch, highEnd) signature cannot name a mix. What
	// the hook returns is the run's outcome, memoized exactly like a
	// local simulation's (so a stored answer is still deduplicated across
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
	// prefix, parents whose warm-up ends before this cycle, and every
	// run of a sampling suite (MetricsInterval or OnFrame set: a
	// checkpoint carries no sampler) fall back to scratch silently. No
	// command sets it; the sweep-fork benchmark does. Set before the
	// first Run.
	WarmupCycles int64
	// Snapshots, when non-nil, keeps warmed parent checkpoints so a
	// later suite restores them instead of re-running the warm-up (the
	// sweep-fork benchmark backs it with an in-memory store). Only
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

	*state
}

// state is what a suite shares with the suites At returns: the memos,
// the simulation slots and the counters. Every key carries its input
// size, so sizes share the bounds without sharing entries.
type state struct {
	flight[runKey, outcome] // the result memo: mu and cache
	sem                     chan struct{}
	// searched memoizes static-assignment searches by the key of the
	// run searched, the seed placement under the static policy.
	searched flight[runKey, [2][]int]
	// warm needs no size: a prefix key covers the whole initial image.
	warm         flight[warmKey, *warmParent]
	warmForks    atomic.Int64
	warmRestores atomic.Int64
	sims         atomic.Int64
}

// outcome is one run as the result memo holds it: the result (nil for
// a failed run), the name the metrics accessors list the run by
// ("app@machine"), and its retained frames (nil with sampling off, or
// when the Store hook answered without simulating).
type outcome struct {
	res    *core.Result
	name   string
	frames *obs.Ring
}

// NewSuite returns a Suite at the given input size, running up to
// GOMAXPROCS simulations concurrently.
func NewSuite(size workloads.Size) *Suite {
	s := &Suite{Size: size, state: &state{sem: make(chan struct{}, runtime.GOMAXPROCS(0))}}
	s.max = maxResults
	s.searched.max = maxResults
	s.warm.max = maxWarmParents
	return s
}

// At returns the suite at the given input size: s itself at s.Size, and
// otherwise a suite with s's settings as they are now that shares s's
// memos, simulation slots (SetParallelism bounds both) and counters.
func (s *Suite) At(size workloads.Size) *Suite {
	if size == s.Size {
		return s
	}
	t := *s
	t.Size = size
	return &t
}

// SetParallelism bounds the number of simulations the suite runs
// concurrently, at every size (cmd/sweep's -parallel flag). It must be
// called before the first Run; changing the bound under in-flight runs
// would leak or deadlock semaphore slots, so it panics once anything is
// cached.
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

// Run simulates app on arch (low-end: 1 chip; high-end: 4 chips),
// returning a cached result when a machine of the same canonical form
// was already run (FA8 and SMT8 differ only in name, so they share one).
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
	m := config.LowEnd(arch)
	if highEnd {
		m = config.HighEnd(arch)
	}
	k := key(app.Name, s.Size, m)
	return s.memo(ctx, k, app.Name, m.Name, func() (outcome, error) { return s.runShared(ctx, k.hash, app, arch, highEnd, m) })
}

// runShared is the owner side of RunContext's singleflight: it hands
// the run, under its key, to the Store hook, when there is one — ahead
// of the semaphore, so a stored answer never holds a simulation slot —
// with the local path as the simulation the hook may call. (A function
// of its own, so that a memo hit does not move m to the heap.) A result
// the hook answers without simulating comes without frames.
func (s *Suite) runShared(ctx context.Context, key [32]byte, app workloads.Workload, arch config.Arch, highEnd bool, m config.Machine) (outcome, error) {
	if s.Store == nil {
		return s.runOwned(ctx, app, m)
	}
	var o outcome
	res, err := s.Store(ctx, key, app.Name, arch, highEnd, s.Size, func() (*core.Result, error) {
		var err error
		o, err = s.runOwned(ctx, app, m)
		return o.res, err
	})
	o.res = res
	return o, err
}

// memo is the one route of every run: fn is the owner side of k's
// singleflight in the result memo, and every error names the run (app
// on machine), once.
func (s *Suite) memo(ctx context.Context, k runKey, app, machine string, fn func() (outcome, error)) (*core.Result, error) {
	named := func(err error) error { return fmt.Errorf("harness: %s on %s: %w", app, machine, err) }
	o, err := s.do(ctx, k, func() (outcome, error) {
		o, err := fn()
		if err != nil {
			// Named here so the memo holds, and every later caller gets,
			// the one error value. A failed run keeps its frames.
			return outcome{name: o.name, frames: o.frames}, named(err)
		}
		return o, nil
	})
	if _, panicked := err.(*panicError); panicked || (err != nil && err == ctx.Err()) {
		// The run panicked past the naming above, or this caller gave up
		// waiting on another's run.
		err = named(err)
	}
	return o.res, err
}

// runOwned simulates a single-program run, the local path of
// runShared: forked from a warmed parent where the program declares a
// shared prefix (warmStart), from scratch otherwise.
func (s *Suite) runOwned(ctx context.Context, app workloads.Workload, m config.Machine) (outcome, error) {
	return s.simulate(ctx, app.Name, m.Name, m.Chips > 1, nil, func() (*core.Simulator, error) {
		p := app.Build(m.Threads(), m.Chips, s.Size)
		if sim, err := s.warmStart(ctx, m, p); sim != nil || err != nil {
			return sim, err
		}
		return core.New(m, p)
	})
}

// mix is a multiprogrammed workload: single-thread jobs, in order, at
// one input size, named by their names joined by "+".
type mix struct {
	name string
	jobs []workloads.Workload
	size workloads.Size
}

// progs builds the mix's programs. Every run and search builds its own
// on its simulation slot (a 16-job ref-size mix builds in under a
// millisecond), so the rows of a figure waiting for a slot hold none.
func (x mix) progs() []*prog.Program {
	progs := make([]*prog.Program, len(x.jobs))
	for i, w := range x.jobs {
		progs[i] = w.Build(1, 1, x.size)
	}
	return progs
}

// key is the memo key of x on m from the start assignment, written
// "0-2-1-3", or "seed" for nil, the seed placement.
func (x mix) key(m config.Machine, start []int) runKey {
	k := key(x.name, x.size, m)
	k.start = cmp.Or(strings.Trim(strings.ReplaceAll(fmt.Sprint(start), " ", "-"), "[]"), "seed")
	return k
}

// runMulti runs the mix x on m, from start when it is not nil, through
// the machinery of RunContext: the result memo and its singleflight, a
// semaphore slot, the suite's per-run settings and frames, OnSimulate,
// cancellation and panic recovery. It skips Store. The run is named
// "jobs@machine/policy-e<epoch>/start", one name per key.
func (s *Suite) runMulti(ctx context.Context, m config.Machine, x mix, start []int) (*core.Result, error) {
	k := x.key(m, start)
	a := m.Alloc.Normalize()
	machine := fmt.Sprintf("%s/%s-e%d/%s", m.Name, cmp.Or(a.Policy, "static"), a.Epoch, k.start)
	return s.memo(ctx, k, x.name, machine, func() (outcome, error) {
		return s.simulate(ctx, x.name, machine, m.Chips > 1, start, func() (*core.Simulator, error) {
			return core.NewMulti(m, x.progs())
		})
	})
}

// search returns the best and worst static assignments of the run k
// names, by core.SearchStatic at its standard budget over simulators
// mk builds, memoized like a run: the allocation figure searches each
// (mix, machine) once. A search holds one simulation slot while
// SearchStatic's own workers score its candidates, so searches are
// bounded like runs.
func (s *Suite) search(ctx context.Context, k runKey, mk func() (*core.Simulator, error)) (best, worst []int, err error) {
	v, err := s.searched.do(ctx, k, func() ([2][]int, error) {
		if err := s.acquire(ctx); err != nil {
			return [2][]int{}, err
		}
		defer s.release()
		best, worst, err := core.SearchStatic(func() (*core.Simulator, error) {
			sim, err := mk()
			if err == nil {
				sim.Interrupt = ctx.Done()
			}
			return sim, err
		}, core.SearchPrefixCycles, core.SearchMaxCandidates)
		if err != nil && ctx.Err() != nil {
			return [2][]int{}, ctx.Err()
		}
		return [2][]int{best, worst}, err
	})
	return v[0], v[1], err
}

// acquire takes one of the suite's simulation slots, or fails with
// ctx's error; release gives it back.
func (s *Suite) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Suite) release() { <-s.sem }

// arm applies the suite's per-run settings to a simulator about to run:
// the cycle bound, the caller's cancellation and, with sampling on, the
// frame ring it returns (nil otherwise). A sampling suite never
// warm-starts, so every simulator armed with sampling runs from cycle
// zero.
func (s *Suite) arm(ctx context.Context, sim *core.Simulator) *obs.Ring {
	if s.MaxCycles > 0 {
		sim.MaxCycles = s.MaxCycles
	}
	sim.Interrupt = ctx.Done()
	if s.MetricsInterval <= 0 && s.OnFrame == nil {
		return nil
	}
	return sim.EnableMetrics(s.MetricsInterval, 0)
}

// simulate performs one uncached simulation on a semaphore slot: build
// makes the simulator, start (when not nil) is installed on it, and
// simulate arms it, runs it, reports it to OnSimulate and returns it
// with its frames as "app@machine" — a run that fails too.
func (s *Suite) simulate(ctx context.Context, app, machine string, highEnd bool, start []int, build func() (*core.Simulator, error)) (outcome, error) {
	if err := s.acquire(ctx); err != nil {
		return outcome{}, err
	}
	defer s.release()
	sim, err := build()
	if err == nil && start != nil {
		err = sim.SetAssignment(start)
	}
	if err != nil {
		return outcome{}, err
	}
	o := outcome{name: app + "@" + machine, frames: s.arm(ctx, sim)}
	if o.frames != nil && s.OnFrame != nil {
		sim.OnInterval(func(f obs.Frame) { s.OnFrame(app, machine, f) })
	}
	s.sims.Add(1)
	t0 := time.Now()
	r, err := sim.Run()
	if s.OnSimulate != nil {
		s.OnSimulate(ctx, app, machine, highEnd, time.Since(t0), err)
	}
	if err != nil {
		if errors.Is(err, core.ErrInterrupted) && ctx.Err() != nil {
			// Surface the caller's cancellation (errors.Is-compatible
			// with context.Canceled / DeadlineExceeded) rather than the
			// core-internal interrupt.
			return o, ctx.Err()
		}
		return o, err
	}
	o.res = r
	return o, nil
}

// Simulations returns how many simulations this suite actually ran on
// this host, at every size (scratch runs and forked-child runs both
// count; cache hits, singleflight shares, and runs the Store hook
// answers do not).
// It is the counter the service's restart tests and /healthz use to
// prove "zero simulations ran" on a fully cached request.
func (s *Suite) Simulations() int64 { return s.sims.Load() }

// Metrics returns the retained frame ring of the given finished run at
// the suite's size ("app@machine", as listed by MetricsRuns), or nil.
// A run in flight has none yet: its frames are published with its
// result, and go when its memo entry goes. Note that cached runs
// simulate once: FA8 and SMT8 share one canonical form and hence one
// ring.
func (s *Suite) Metrics(run string) (ring *obs.Ring) {
	s.eachFramed(func(o outcome) {
		if o.name == run {
			ring = o.frames
		}
	})
	return ring
}

// MetricsRuns lists the finished runs at the suite's size with
// retained metrics, sorted (empty, not nil, when there are none).
func (s *Suite) MetricsRuns() []string {
	runs := []string{}
	s.eachFramed(func(o outcome) { runs = append(runs, o.name) })
	sort.Strings(runs)
	return runs
}

// eachFramed calls fn, under the memo's lock, on every finished run at
// the suite's size that retained frames.
func (s *Suite) eachFramed(fn func(outcome)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range s.finished {
		if o := s.cache[k].val; k.size == s.Size && o.frames != nil {
			fn(o)
		}
	}
}

// RunMatrixContext runs every (app × arch) pair concurrently and
// returns the results indexed [app][arch.Name]. Once ctx is done,
// in-flight simulations abort promptly and the matrix returns the
// cancellation error. When cells fail, the error is the first failing
// cell's in app-major order, whatever the schedule. It is safe for
// concurrent callers — overlapping matrices share cached runs through
// the singleflight.
func (s *Suite) RunMatrixContext(ctx context.Context, apps []workloads.Workload, archs []config.Arch, highEnd bool) (map[string]map[string]*core.Result, error) {
	res := make([]*core.Result, len(apps)*len(archs))
	err := each(len(res), func(i int) (err error) {
		res[i], err = s.RunContext(ctx, apps[i/len(archs)], archs[i%len(archs)], highEnd)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]*core.Result, len(apps))
	for _, a := range apps {
		out[a.Name] = make(map[string]*core.Result, len(archs))
	}
	for i, r := range res {
		out[apps[i/len(archs)].Name][archs[i%len(archs)].Name] = r
	}
	return out, nil
}

// each calls fn(0) … fn(n-1) concurrently and waits for them all. Of
// the calls that fail it returns the lowest index's error, so the error
// a caller sees depends on its inputs, not on the schedule (the rule
// core.SearchStatic follows for its candidates).
func each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Row is one bar of a figure: an (app, arch) cell.
type Row struct {
	App        string
	Arch       string
	Cycles     int64
	Normalized float64 // execution time, the figure baseline's = 100 (AdjustClock: wall clock)
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

// Best returns the architecture with the lowest normalized time for
// app: the fewest cycles on a plain figure, the least wall clock on
// AdjustClock's.
func (f *Figure) Best(app string) string { return f.best(app, "") }

// BestFA returns the best fixed-assignment architecture for app
// (excludes SMT rows).
func (f *Figure) BestFA(app string) string { return f.best(app, "FA") }

// best returns the architecture named with prefix that has the lowest
// normalized time for app (the first such row on ties).
func (f *Figure) best(app, prefix string) string {
	best, bestTime := "", 0.0
	for _, r := range f.Rows {
		if r.App != app || !strings.HasPrefix(r.Arch, prefix) {
			continue
		}
		if best == "" || r.Normalized < bestTime {
			best, bestTime = r.Arch, r.Normalized
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
