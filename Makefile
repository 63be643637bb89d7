# Tier-1 gate: everything CI requires green.
check: diff race
	go build ./...
	go vet ./...
	go test ./...

# Differential matrix only: scan × wakeup issue crossed with stepped ×
# fast-forward cycle loops, plus sequential × parallel execution, plus
# reference × fast memory paths, plus observability on × off, plus
# run-from-checkpoint × run-from-scratch (and the golden on-disk
# snapshot fixture), plus service telemetry on × off, plus allocation
# policy static × none (and dynamic-policy determinism under every
# loop), must agree bit-for-bit on the full Result (reflect.DeepEqual)
# across every preset; plus the entry pool's own gates — recycled slots
# read as committed entries (scan × wakeup on a 16-entry window), the
# steady-state loop allocates nothing, and no slot leaks or is held
# twice; plus program-digest identity — the streamed Fingerprint and
# PrefixKey equal the map-and-sort oracle byte for byte on every
# workload and on seeded odd images, and ForkProgram/Restore accept the
# same programs as before; plus the chunk-lazy cache tag array against
# the dense array it replaced (same answers, victims, counters and
# snapshot bytes on seeded op streams with forks), and the concurrent
# oracle search against its sequential reference under the pinned
# enumeration order. Fast feedback when touching the issue stage, the
# quiescence skip, the parallel loop, the memory hierarchy, the
# metrics/tracing hooks, the snapshot codec, the alloc subsystem, the
# entry pool, the program image and its digests, or the cache arrays.
diff:
	go test ./internal/core -run 'TestEventDriven|TestWakeup|TestStoreForwardingMap|TestMemPath|TestObs|TestParallel|TestMetricsRingDrops|TestCheckpointDifferential|TestSnapshotGolden|TestProgramAcceptance|TestAlloc|TestStaleHandleSlotReuse|TestSteadyStateZeroAllocs|TestEntryPoolConservation|TestSearchStaticMatchesSequential|TestEnumerateAssignmentsGolden'
	go test ./internal/memsys -run 'TestCacheChunkedMatchesDense|TestCacheForkSharesUntouchedChunks|TestCacheDecodeZeroChunks|TestCacheSingleWalkDifferential'
	go test ./internal/prog -run 'TestDigest'
	go test ./internal/service -run TestTelemetryDifferential

# Race-check the concurrent layers: the core parallel execution mode
# (differential + mid-fast-forward cancellation), COW snapshot forking
# (children racing each other and the continuing parent), harness
# (suite cache + singleflight + warm-up sharing + cancellation),
# service (queue, two-tier cache, backpressure, snapshot persistence,
# e2e HTTP, cross-node tracing), telemetry (concurrent scrapes against
# concurrent observers, span-ring races), prog (one program's digests
# asked for by many goroutines at once), the oracle search's workers
# (candidates built from one shared frozen program, scored at once) and
# memsys (forked caches sharing chunks).
race:
	go test -race ./internal/core -run 'TestParallel|TestInterrupt|TestObsFrameConservationParallel|TestMetricsRingDropsParallel|TestSnapshotRoundTripRace|TestAllocParallel|TestSearchStatic'
	go test -race ./internal/harness/... ./internal/service/... ./internal/telemetry/... ./internal/prog/... ./internal/memsys/...

# Regenerate BENCH_core.json (fast-forward, wakeup, memory-path,
# observability, parallel-execution, checkpoint-forking and fabric
# scale-out measurements).
bench:
	WRITE_BENCH=1 go test -run TestWriteBenchCoreJSON -v .

# The measurement spine (benchmark/README.md): every workload's
# end-to-end metrics, and the per-layer numbers from a traced run.
perf:
	go run ./benchmark

perf-trace:
	go run ./benchmark -trace 1

.PHONY: check diff race bench perf perf-trace
