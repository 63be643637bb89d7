# Tier-1 gate: everything CI requires green, each thing once — build,
# vet, the code-size, panic and dead-code ratchets, every test (the
# differentials of `make diff` among them), then the race check of the
# concurrent layers.
check:
	go build ./...
	go vet ./...
	$(MAKE) loc-budget
	$(MAKE) panics
	$(MAKE) deadcode
	$(MAKE) wb
	go test ./...
	$(MAKE) race

# Differentials only: the quick standalone gate, a subset of what
# `go test ./...` runs. The binary carries one implementation per layer —
# one cycle loop, one issue stage, one memory path — and each is held
# to its definition, which lives in _test.go: the stepped reference
# loop and the window-scan issue stage (internal/core/oracle_test.go;
# the window is the threads' fifos merged by seq) against Simulator.Run on the full Result (reflect.DeepEqual) across
# every preset, with the ready lists, waiting tallies, producer
# counters, wheel events, forwarding stores and every sleeping cluster
# audited every cycle, and the sleep bounds no wheel event carries
# (a fifo front, a mispredicted branch, a forwarding store) each held
# to the stepped loop; the sweep MSHR
# file, the dense tag array, the map directory, the map TLB and the map
# page table against the heap-and-sorted-array MSHR file, the chunk-lazy
# tags, the open-addressed directory and TLB (probe chains wrapping the
# table's end) and the page table with its copy-on-write bitset (forks,
# privatizations and views older than both, against the gen rule) on
# seeded op streams; the map-and-sort hash against the
# streamed program digests (repeated extents included), the bulk image
# setter against one Set per word, repeated extents against the same
# words set in bulk (words, Runs and loaded pages), Set, SetRun and
# repeated extents interleaved against a map (FuzzImage's seeds), Build's
# hand-over of its image, and its decoded slots against isa.InfoFor; the lazily allocated BTB against an eager one
# (and across a snapshot); the sequential loop against the concurrent
# oracle search. Whole-run Results on all presets are pinned separately
# by the golden corpus (go test ./benchmark, in `make check`). Beside
# those: observability on × off, run-from-checkpoint × run-from-scratch
# (sampling off, seed placement; and the on-disk snapshot fixture),
# service telemetry on × off,
# allocation policy static × none (and dynamic-policy determinism), and
# the entry pool's own gates — stale handles read as committed entries,
# the steady-state loop allocates nothing, no slot leaks or is held
# twice, the pool is exactly the window and every queue keeps its
# capacity, a damaged pool in a checkpoint is refused; the daemon's worker bound holding for figure cells as for jobs,
# and across input sizes. And the harness's one route: the allocation
# figure's cheap rows pinned through the suite memo (a second pass runs
# nothing), a failing matrix reporting its lowest cell's error, and a
# run's frames published with its result, never while it runs.
diff:
	go test ./internal/core -run 'TestEventDriven|TestClusterSleep|TestSleepBound|TestWakeup|TestStoreForwardingMap|TestMemPath|TestObs|TestMetricsRingDrops|TestCheckpointDifferential|TestSnapshotGolden|TestProgramAcceptance|TestAlloc|TestStaleHandleSlotReuse|TestSteadyStateZeroAllocs|TestEntryPoolConservation|TestBoundedQueues|TestSnapshotCorruptPool|TestSearchStaticMatchesSequential|TestEnumerateAssignmentsGolden|TestBTB'
	go test ./internal/memsys -run 'TestCacheChunkedMatchesDense|TestCacheForkSharesUntouchedChunks|TestCacheDecodeZeroChunks|TestCacheSingleWalkDifferential|TestMSHRDifferential|TestTLBMapDifferential'
	go test ./internal/interp -run 'TestPageTableMapDifferential|TestPageTableRefusesBadPages'
	go test ./internal/coherence -run 'TestDirectoryMapTableDifferential'
	go test ./internal/prog -run 'TestDigest|TestImage|TestBuild|TestDecoded|FuzzImage'
	go test ./internal/service -run 'TestTelemetryDifferential|TestWorkersBoundFigureCells|TestWorkersBoundAcrossSizes'
	go test ./internal/harness -run 'TestAllocFigureRows|TestRunMatrixLowestIndexError|TestFramesPublishedWithResult'

# Race-check the concurrent layers: core's mid-run cancellation, COW
# snapshot forking (children racing each other and the continuing
# parent) and the oracle search's workers (candidates built from one
# shared frozen program, scored at once); interp's copy-on-write pages
# (a forked parent and child writing their shared pages at once, with
# no lock in Memory); harness (suite cache +
# singleflight + its eviction + warm-up sharing on non-sampling suites +
# cancellation, and the
# allocation figure's searches — TestAllocFigureRows — whose candidates
# share one built mix),
# service (queue, two-tier cache — TestCacheLogRace's appends racing
# Gets that promote records from the log — backpressure,
# e2e HTTP, figures through the cache, tracing), telemetry (concurrent
# scrapes against concurrent observers, span-ring races), prog (one
# program's digests asked for by many goroutines at once) and memsys
# (forked caches sharing chunks).
race:
	go test -race ./internal/core -run 'TestInterrupt|TestSnapshotRoundTripRace|TestSearchStatic'
	go test -race ./internal/interp/... ./internal/harness/... ./internal/service/... ./internal/telemetry/... ./internal/prog/... ./internal/memsys/...

# The measurement spine (benchmark/README.md): every workload's
# end-to-end metrics, and the per-layer numbers from a traced run.
perf:
	go run ./benchmark

perf-trace:
	go run ./benchmark -trace 1

# No write barrier in the cycle loop's hot functions: the wakeup wheel,
# the ready list and issue's compaction, the TLB and MSHR file, and a
# thread's memory view (the list is in tools/wbcheck/main.go). The
# compiler reports every barrier (-d=wb); one inside those fails.
wb:
	go run ./tools/wbcheck

# Non-test Go lines outside benchmark/ — ROADMAP's code-size metric.
LOC = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l
loc:
	@$(LOC)

# The ratchet on that metric: `make check` fails above LOC_BUDGET, so the
# number cannot drift up unnoticed between ROADMAP re-anchors. A PR that
# shrinks the tree lowers the budget to its own `make loc`; one that has
# to grow it raises the budget in the same diff, where review sees it.
LOC_BUDGET = 16109
loc-budget:
	@n=$$($(LOC)); \
	if [ "$$n" -gt $(LOC_BUDGET) ]; then \
		echo "make loc = $$n, over LOC_BUDGET = $(LOC_BUDGET)"; exit 1; \
	fi; \
	echo "make loc = $$n (budget $(LOC_BUDGET))"

# The same ratchet on `panic(` sites in non-test code outside benchmark/.
# An input is judged once, where it enters (config.Machine.Validate,
# prog.Builder.Build), so a constructor below trusts it instead of
# panicking. A PR that adds a panic raises PANIC_BUDGET in the same
# diff.
PANIC_BUDGET = 23
panics:
	@n=$$(grep -rn 'panic(' --include=*.go . | grep -v _test.go | grep -v '^./benchmark' | wc -l); \
	if [ "$$n" -gt $(PANIC_BUDGET) ]; then \
		echo "$$n panic( sites, over PANIC_BUDGET = $(PANIC_BUDGET)"; exit 1; \
	fi; \
	echo "$$n panic( sites (budget $(PANIC_BUDGET))"

# The ratchet on unused code: every function in a non-test file of a
# library package is linked by a cmd/ or benchmark/ binary, and every
# exported package-level const, var and type there is named by non-test
# code beside its declaration, or listed with its reason in
# tools/deadcode/allow.txt (tools/deadcode/main.go).
deadcode:
	go run ./tools/deadcode

.PHONY: check diff race perf perf-trace loc loc-budget panics deadcode wb
