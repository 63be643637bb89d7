# Tier-1 gate: everything CI requires green, each thing once — build,
# vet, the code-size ratchet, every test (the differentials of `make
# diff` among them), then the race check of the concurrent layers.
check:
	go build ./...
	go vet ./...
	$(MAKE) loc-budget
	go test ./...
	$(MAKE) race

# Differentials only: the quick standalone gate, a subset of what
# `go test ./...` runs. The binary carries one implementation per layer —
# one cycle loop, one issue stage, one memory path — and each is held
# to its definition, which lives in _test.go: the stepped reference
# loop and the window-scan issue stage (internal/core/oracle_test.go)
# against Simulator.Run on the full Result (reflect.DeepEqual) across
# every preset, with the ready lists, waiting tallies, forwarding
# stores and every sleeping cluster audited every cycle; the sweep MSHR
# file, the dense tag array and the map directory against the heap,
# chunk-lazy and open-addressed structures on seeded op streams; the map-and-sort hash against the
# streamed program digests (repeated extents included), the bulk image
# setter against one Set per word, repeated extents against the same
# words set in bulk (words, Runs and loaded pages), and Build's
# hand-over of its image; the lazily allocated BTB against an eager one
# (and across a snapshot); the sequential loop against the concurrent
# oracle search. Whole-run Results on all presets are pinned separately
# by the golden corpus (go test ./benchmark, in `make check`). Beside
# those: observability on × off, run-from-checkpoint × run-from-scratch
# (and the on-disk snapshot fixture), service telemetry on × off,
# allocation policy static × none (and dynamic-policy determinism), and
# the entry pool's own gates — stale handles read as committed entries,
# the steady-state loop allocates nothing, no slot leaks or is held
# twice.
diff:
	go test ./internal/core -run 'TestEventDriven|TestClusterSleep|TestWakeup|TestStoreForwardingMap|TestMemPath|TestObs|TestMetricsRingDrops|TestCheckpointDifferential|TestSnapshotGolden|TestProgramAcceptance|TestAlloc|TestStaleHandleSlotReuse|TestSteadyStateZeroAllocs|TestEntryPoolConservation|TestSearchStaticMatchesSequential|TestEnumerateAssignmentsGolden|TestBTB'
	go test ./internal/memsys -run 'TestCacheChunkedMatchesDense|TestCacheForkSharesUntouchedChunks|TestCacheDecodeZeroChunks|TestCacheSingleWalkDifferential|TestMSHRDifferential'
	go test ./internal/coherence -run 'TestDirectoryMapTableDifferential'
	go test ./internal/prog -run 'TestDigest|TestImage|TestBuild'
	go test ./internal/service -run TestTelemetryDifferential

# Race-check the concurrent layers: core's mid-run cancellation, COW
# snapshot forking (children racing each other and the continuing
# parent) and the oracle search's workers (candidates built from one
# shared frozen program, scored at once); harness (suite cache +
# singleflight + its eviction + warm-up sharing + cancellation),
# service (queue, two-tier cache, backpressure, snapshot persistence,
# e2e HTTP, figures through the cache, tracing), telemetry (concurrent
# scrapes against concurrent observers, span-ring races), prog (one
# program's digests asked for by many goroutines at once) and memsys
# (forked caches sharing chunks).
race:
	go test -race ./internal/core -run 'TestInterrupt|TestSnapshotRoundTripRace|TestSearchStatic'
	go test -race ./internal/harness/... ./internal/service/... ./internal/telemetry/... ./internal/prog/... ./internal/memsys/...

# The measurement spine (benchmark/README.md): every workload's
# end-to-end metrics, and the per-layer numbers from a traced run.
perf:
	go run ./benchmark

perf-trace:
	go run ./benchmark -trace 1

# Non-test Go lines outside benchmark/ — ROADMAP's code-size metric.
LOC = find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l
loc:
	@$(LOC)

# The ratchet on that metric: `make check` fails above LOC_BUDGET, so the
# number cannot drift up unnoticed between ROADMAP re-anchors. A PR that
# shrinks the tree lowers the budget to its own `make loc`; one that has
# to grow it raises the budget in the same diff, where review sees it.
LOC_BUDGET = 17308
loc-budget:
	@n=$$($(LOC)); \
	if [ "$$n" -gt $(LOC_BUDGET) ]; then \
		echo "make loc = $$n, over LOC_BUDGET = $(LOC_BUDGET)"; exit 1; \
	fi; \
	echo "make loc = $$n (budget $(LOC_BUDGET))"

.PHONY: check diff race perf perf-trace loc loc-budget
