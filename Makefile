# GDMP build and verification entry points.
#
# `make check` is the tier-1+ gate: everything tier-1 runs
# (build + tests), plus vet, gofmt, and the full suite under the race
# detector. CI and pre-merge runs should use it.

GO ?= go

.PHONY: all build test check loc vet fmt race soak-load fuzz-smoke bench bench-e2e bench-pull bench-catalog chaos crash scrub parity cache catalog partition overload

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The production soak under load: eight soak runs under the race detector
# beside the race suites of the busiest packages (never cached, so the load
# is real), both at once; fails if either does. Not part of `check` (it
# doubles the race suite's time): run it before trusting a change to the
# pull path on a loaded box.
soak-load:
	$(GO) test -race -count=8 -run TestProductionSoak . & soak=$$!; \
	$(GO) test -race -count=1 ./internal/core ./internal/gridftp ./internal/replica; race=$$?; \
	wait $$soak && [ $$race -eq 0 ]

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# bench/ is a module of its own (root `go test ./...` cannot see it) that
# imports this module's packages, so the gate builds and tests it too: a
# refactor that breaks the benchmark fails here, not in the pipeline.
# The arm64 cross-build compiles what no amd64 build does: the portable
# GF(2^8) kernel dispatch in internal/parity/gf_other.go.
check: fmt vet build race
	cd bench && $(GO) vet ./... && $(GO) test ./...
	GOARCH=arm64 $(GO) vet ./internal/parity
	GOARCH=arm64 $(GO) build ./...

# Fuzz smoke: ten seconds of mutation per native fuzz target (the parsers
# of bytes a GridFTP peer controls on either end, of the certificate
# chain an unauthenticated peer presents in its TLS handshake, of the Request Manager
# frame and the fsck reply an authenticated peer sends, of the metrics
# exposition `gdmp status` reads back from a site, of the
# catalog query filter and the bloom digest a catalog client or site sends,
# and of what a rotting disk controls: the parity sidecar header, the journal's snapshot
# file, and the site's and the replica catalog's journal records, WAL and
# snapshot alike), plus a differential target that holds the SIMD
# GF(2^8) kernel to the portable one and to the field's definition. The
# seed corpora already run under plain `go test`; a crasher found here
# lands in the package's testdata/fuzz/ and fails every later run until
# fixed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRecvBlocks$$' -fuzztime 10s ./internal/gridftp
	$(GO) test -run '^$$' -fuzz '^FuzzReadReply$$' -fuzztime 10s ./internal/gridftp
	$(GO) test -run '^$$' -fuzz '^FuzzTransferArgs$$' -fuzztime 10s ./internal/gridftp
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyChain$$' -fuzztime 10s ./internal/gsi
	$(GO) test -run '^$$' -fuzz '^FuzzRequestFrame$$' -fuzztime 10s ./internal/rpc
	$(GO) test -run '^$$' -fuzz '^FuzzFsckReply$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSiteRecord$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSiteStatus$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshot$$' -fuzztime 10s ./internal/journal
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSidecar$$' -fuzztime 10s ./internal/parity
	$(GO) test -run '^$$' -fuzz '^FuzzMulSlice$$' -fuzztime 10s ./internal/parity
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMutation$$' -fuzztime 10s ./internal/replica
	$(GO) test -run '^$$' -fuzz '^FuzzParseFilter$$' -fuzztime 10s ./internal/replica
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalBloom$$' -fuzztime 10s ./internal/replica

# Size report: non-test Go lines under internal/ and cmd/ per package,
# their total, and each daemon's flag count — the numbers a pruning PR
# quotes (ROADMAP item 13). Informational; never fails.
loc:
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u); do \
		printf '%6d  %s\n' "$$(cat $$(ls $$d/*.go | grep -v _test.go) | wc -l)" "$$d"; \
	done
	@printf '%6d  total\n' "$$(find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"
	@for d in gdmpd replicad; do \
		printf '%6d  %s flags\n' "$$($(GO) run ./cmd/$$d -h 2>&1 | grep -c '^  -')" "$$d"; \
	done

bench: bench-pull
	$(GO) test -bench=. -benchmem ./...

# End-to-end benchmark (BENCHMARK.json, bench/README.md): one traced run of
# all four loopback workloads with the per-layer budget and the exact
# per-pull counts. Builds into .bench_build/ and leaves the result there.
# Not part of `check`: it takes minutes and its times are not gated.
bench-e2e:
	sh bench/run.sh --trace 1 --runs 1 --out .bench_build/bench.json

# Pull-scheduler benchmark: drains a 16-file pending queue over a
# latency-shaped WAN link, sequentially and with the 4-worker pool, and
# records both timings plus the speedup in BENCH_pull.json. Fails if the
# pool is under 3x faster than sequential.
BENCH_PULL_OUT ?= BENCH_pull.json
bench-pull:
	BENCH_PULL_OUT=$(BENCH_PULL_OUT) $(GO) test -run TestPullSchedulerBenchmark -v .

# Catalog RLS benchmark: loads 1M LFNs into the sharded central catalog,
# sustains a lookup storm (>=10k/sec floor), compares lookup throughput
# under journaled write load against the single-mutex baseline (sharded
# must win), and asserts the bloom digest's false-positive rate stays
# under its bound. Results land in $(BENCH_CATALOG_OUT).
BENCH_CATALOG_OUT ?= BENCH_catalog.json
bench-catalog:
	BENCH_CATALOG_OUT=$(BENCH_CATALOG_OUT) $(GO) test -run TestCatalogBenchmark -v .

# RLS suite: the sharded-catalog + bloom-digest Replica Location Service
# tests — shard rebalance and concurrency properties, RLI soft-state
# semantics, journaled-store recovery and snapshots, refused appends, and
# the grid-level read-your-writes, RLI-fallback, false-positive, and
# crash-convergence scenarios. Race detector on. The seed is logged by
# every property test; replay a run with `make catalog RLS_SEED=7`.
RLS_SEED ?= 20260809
catalog:
	@echo "rls seed: $(RLS_SEED)"
	RLS_SEED=$(RLS_SEED) $(GO) test -race -v \
		-run 'TestRLS|TestRLI|TestShard|TestStore|TestSnapshot|TestCatalogRefusedAppendChangesNothing|TestBloom|TestReadEntry|TestConcurrentShardedMutation' \
		./internal/replica .

# Fault-injection suite: scripted fault schedules through internal/faults,
# race detector on. The seed is logged by every test; override it to
# replay a run, e.g. `make chaos CHAOS_SEED=7`. The write side's own tests
# (publish, batch, subscribers, notify, pending, rebuild, recover) run with
# it, three times over, as the durability tests do under `make crash`.
CHAOS_SEED ?= 20260805
chaos:
	@echo "chaos seed: $(CHAOS_SEED)"
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -v \
		-run 'TestChaos|TestRecoverWithMidTransferFailure|TestProcessPendingRequeuesRemainder' .
	$(GO) test -race -count=3 \
		-run 'TestPublish|TestSubscribe|TestDrain|TestNotify|TestCloseDuringNotifyStorm|TestAutoReplicate|TestFanOut|TestPending|TestRebuild|TestFailureRecovery|TestStageOfDiskFile' \
		./internal/core

# Crash/restart chaos suite: sites die at randomized points (journal
# severed, no graceful teardown) and restart on the same state and data
# directories; recovery must lose no notification, requeue every unfinished
# pull, resume partial downloads, and quarantine anything corrupt. It runs
# in two modes under the same seed. The process mode models SIGKILL: the
# page cache survives and reaches the disk, fsync'd or not. The power mode
# (CRASH_MODE=power) models a power cut: before each restart the killed
# site's directories are rolled back to what its fsyncs and directory
# fsyncs made durable, POSIX-minimal (testbed.Recorder), so a missing flush
# fails it. The seed and mode are logged by every test; replay a run with
# `make crash CRASH_SEED=7`, or one mode with `CRASH_MODE=power go test -run
# TestCrashRestart .`. State directories of failed tests survive under
# $(CRASH_ARTIFACT_DIR)/<mode> for inspection. The unit-level durability
# tests (record semantics, torn tails, byte-compatibility with the pinned
# journals, and the journal package's own: a crash at each step of a
# compaction, corrupt snapshots) run with the suite, three times over.
CRASH_SEED ?= 20260805
CRASH_ARTIFACT_DIR ?= crash-artifacts
crash:
	@echo "crash seed: $(CRASH_SEED)"
	CRASH_SEED=$(CRASH_SEED) CRASH_MODE=process CRASH_ARTIFACT_DIR=$(CRASH_ARTIFACT_DIR)/process \
		$(GO) test -race -v -run 'TestCrashRestart' .
	CRASH_SEED=$(CRASH_SEED) CRASH_MODE=power CRASH_ARTIFACT_DIR=$(CRASH_ARTIFACT_DIR)/power \
		$(GO) test -race -v -run 'TestCrashRestart|TestPowerCut|TestDurableFlushCounts' .
	$(GO) test -race -count=3 -run 'TestPersist|TestJournalBytesMatchParent' ./internal/core
	$(GO) test -race -count=3 ./internal/journal

# Partition chaos suite: a seeded asymmetric partition wedges the
# primary replica source mid-stream; every pull must still complete from
# the secondary via a hedged transfer that resumes the CRC-verified
# .part prefix cross-source, the dead peer's circuit breaker must shed
# all load until its reopen probe, and breaker transitions, hedge
# outcomes, and wasted bytes are asserted exactly. Race detector on. The
# seed is logged by every test; replay a run with
# `make partition PARTITION_SEED=7`.
PARTITION_SEED ?= 20260809
partition:
	@echo "partition seed: $(PARTITION_SEED)"
	PARTITION_SEED=$(PARTITION_SEED) $(GO) test -race -v \
		-run 'TestPartition' .

# Overload chaos suite: a ~10x offered load plus a synchronized retry
# storm against the admission controller — goodput and p99 admission
# wait must hold their floors, zero requests may execute past their
# wire-propagated deadline, brownout must shed background work and lift
# after the storm, draining must refuse queued work while in-flight work
# finishes, and an injected ENOSPC must release its pool reservation
# without orphans or quarantine. Race detector on. The seed is logged by every test; replay
# a run with `make overload OVERLOAD_SEED=7`.
OVERLOAD_SEED ?= 20260809
overload:
	@echo "overload seed: $(OVERLOAD_SEED)"
	OVERLOAD_SEED=$(OVERLOAD_SEED) $(GO) test -race -v \
		-run 'TestOverload' .

# Self-healing suite: bit-rot injection, anti-entropy convergence, and
# quarantine retention, race detector on. The seed is logged by every
# test; replay a run with `make scrub SCRUB_SEED=7`.
SCRUB_SEED ?= 20260805
scrub:
	@echo "scrub seed: $(SCRUB_SEED)"
	SCRUB_SEED=$(SCRUB_SEED) $(GO) test -race -v \
		-run 'TestSelfHeal|TestAntiEntropyConvergence|TestQuarantineRetention' .

# Erasure-coded repair suite: block-aligned corruption bursts against
# parity sidecars — within-budget damage rebuilt locally with zero WAN
# bytes, beyond-budget damage falling back to quarantine + re-pull, crash
# recovery around sidecar writes, and sidecar retention. Race detector
# on. The seed is logged by every test; replay a run with
# `make parity PARITY_SEED=7`. State directories of failed crash tests
# survive under $(CRASH_ARTIFACT_DIR) for inspection.
PARITY_SEED ?= 20260805
parity:
	@echo "parity seed: $(PARITY_SEED)"
	PARITY_SEED=$(PARITY_SEED) CRASH_ARTIFACT_DIR=$(CRASH_ARTIFACT_DIR) \
		$(GO) test -race -v -run 'TestParity' .

# Disk-pool cache soak: a seeded Zipf trace drives two consumer sites
# through a capacity-bounded pool, comparing LRU vs FIFO at two skews and
# asserting hit-rate floors, capacity bounds, and eviction/RC-withdrawal
# consistency. Results land in $(BENCH_CACHE_OUT). The seed is logged;
# replay a run with `make cache CACHE_SEED=7`.
CACHE_SEED ?= 20260805
BENCH_CACHE_OUT ?= BENCH_cache.json
cache:
	@echo "cache seed: $(CACHE_SEED)"
	CACHE_SEED=$(CACHE_SEED) BENCH_CACHE_OUT=$(BENCH_CACHE_OUT) \
		$(GO) test -race -v -run 'TestCacheSoak|TestCachePrefetch' .
