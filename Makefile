GO ?= go

.PHONY: all build vet test race lint bench bench-smoke smoke golden clean test-fuzz test-parallel test-chaos test-differential

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet: a gofmt check over the tracked Go files
# (git ls-files, so build output such as .bench_build/ is never scanned),
# then staticcheck at a pinned version so CI runs are reproducible.
# `go run` fetches staticcheck on first use (needs module network
# access); override STATICCHECK to point at a local binary offline.
GOFMT ?= gofmt
STATICCHECK ?= $(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1
lint: vet
	@unformatted=$$($(GOFMT) -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(STATICCHECK) ./...

test:
	$(GO) test ./...

# The concurrency contracts: the telemetry layer, the worker pool, the
# HTTP compression service and the fleet tests that boot it (zipserverd
# from its flags; zipload clusters through an instance's death and
# revival), the experiment scheduler (fake-runner + cheap real-runner
# tests), the attack stack, whose single-goroutine counters a -progress
# reader snapshots mid-run, and the lzw and lz77 codecs, whose pooled
# tables the server's workers share.
race:
	$(GO) test -race ./internal/obs/... ./internal/par/... ./internal/server/... ./internal/pagestore/... ./internal/taint/ ./internal/core/
	$(GO) test -race ./internal/compress/lzw/ ./internal/compress/lz77/
	$(GO) test -race ./cmd/zipserverd/ ./cmd/zipload/
	$(GO) test -race ./internal/cache/ ./internal/attacker/ ./internal/sgx/ ./internal/zipchannel/ ./cmd/zipchannel-sgx/
	$(GO) test -race -run 'TestRunAll' ./internal/experiments/
	$(MAKE) test-differential

# The compiled engine's acceptance gate: every victim under both engines
# (interp vs threaded code + block taint transfer), bit-identical machine
# state, leakage reports, and taint histories — under the race detector,
# since the engine/decode/transfer caches are shared across VMs.
test-differential:
	$(GO) test -race -count=1 -run 'TestEngineDifferential' ./internal/core/

# Short fuzz pass over every from-scratch compressor's round trip, every
# decompressor on raw input, the Huffman builder against its reference
# and bwt's comparison-free rotation order against both comparison sorts
# (the checked-in corpora under testdata/fuzz/ always run as part of
# `test`; this additionally explores for FUZZTIME per target).
# FuzzRotationOrder builds mainSort's 65537-entry tables on every call,
# so minimising one new input for the default 60 s would take the whole
# FUZZTIME; its minimisation is capped by a run count instead.
FUZZTIME ?= 10s
test-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/compress/lz77/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/compress/lzw/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/compress/bwt/
	$(GO) test -run '^$$' -fuzz FuzzRotationOrder -fuzztime $(FUZZTIME) -fuzzminimizetime 50x ./internal/compress/bwt/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/compress/huffcoding/
	$(GO) test -run '^$$' -fuzz FuzzBuildLengths -fuzztime $(FUZZTIME) ./internal/compress/huffcoding/
	$(GO) test -run '^$$' -fuzz FuzzDecompress -fuzztime $(FUZZTIME) ./internal/compress/codec/
	$(GO) test -run '^$$' -fuzz FuzzParseCacheControl -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzParseIfNoneMatch -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzParseTraceparent -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz FuzzPageRoundTrip -fuzztime $(FUZZTIME) ./internal/pagestore/
	$(GO) test -run '^$$' -fuzz FuzzVMDifferential -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzShadowMem -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzCacheDifferential -fuzztime $(FUZZTIME) ./internal/cache/
	$(GO) test -run '^$$' -fuzz FuzzSetUnion -fuzztime $(FUZZTIME) ./internal/taint/

# The scheduler's determinism contract: the full quick suite must be
# byte-identical at parallelism 1 and 8 (manifests and merged snapshot),
# and 4 workers must not be slower than 1 (the anti-scaling guard).
test-parallel:
	$(GO) test -count=1 -run 'TestSchedulerDeterministic|TestRunAll' ./internal/experiments/

# Full benchmark sweep: every paper table/figure plus substrate
# micro-benchmarks (see bench_test.go).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# One-iteration hot-path smoke (CI runs this so compile or gross perf
# regressions on the taint/LZ77/LZW/BWT paths, each codec on the 4 KiB
# bodies the server sees, the LLC model and Attack 1's Prime+Probe loop,
# and the in-process /v1 request path surface in PRs).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTaintAnalysis|BenchmarkLZ77Compress|BenchmarkLZWCompress|BenchmarkBWTCompress|BenchmarkCodec4KiB|BenchmarkCacheAccess|BenchmarkSGXAttackPerByte' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkServeHit|BenchmarkServeMiss' -benchtime 1x ./internal/server/

# Quick cross-layer check: SGX attack telemetry end to end.
smoke:
	$(GO) test -run TestExperimentsSmoke ./internal/experiments/

# Chaos suite (DESIGN.md §8), under -race: concurrent faulted server
# load (zero round-trip corruption), breaker/deadline/disarmed-invisibility
# contracts, retrying zipload clients, the page store recovering from
# transient corruption, the bzip2 ftab attack recovering >99% of a 10 KB
# buffer under injected measurement noise, and zipserverd booted from
# its flags with ~10% injected faults (codec errors, panics, output
# corruption, cache bit-flips, disk I/O errors, gate latency): every
# round trip byte-exact, shutdown within the drain bound, and a final
# metrics snapshot that shows the faults fired.
test-chaos:
	ZIPCHAOS_FULL=1 $(GO) test -race -count=1 \
		-run 'TestChaos|TestDisarmedFaultsAreInvisible|TestRunLoadRetriesRecoverInjectedFaults|TestPageTrafficRecoversFromTransientCorruption|TestRunServesAndDrains' \
		./internal/server/ ./internal/zipchannel/ ./cmd/zipload/ ./internal/pagestore/ ./cmd/zipserverd/

# Regenerate golden files (obs snapshot and Prometheus exposition,
# server /metrics, TaintChannel reports, attack snapshots, zipserverd
# cache topologies, and the experiments' sgx quick manifest and
# quick-suite digest).
golden:
	$(GO) test ./internal/obs/ -run 'TestSnapshotGolden|TestPromGolden' -update
	$(GO) test ./internal/server/ -run TestMetricsGolden -update
	$(GO) test ./internal/core/ -run TestReportGolden -update
	$(GO) test ./internal/zipchannel/ -run TestAttackSnapshotGolden -update
	$(GO) test ./cmd/zipserverd/ -run TestCacheTopologies -update
	$(GO) test ./cmd/experiments/ -run TestSGXQuickGolden -update

clean:
	$(GO) clean ./...
