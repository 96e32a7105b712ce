GO ?= go

.PHONY: all build vet test race lint bench bench-cluster bench-smoke smoke smoke-server smoke-obs smoke-pages golden clean test-fuzz test-parallel test-chaos test-chaos-cluster test-differential

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet: staticcheck at a pinned version so CI runs
# are reproducible. `go run` fetches it on first use (needs module network
# access); override STATICCHECK to point at a local binary offline.
STATICCHECK ?= $(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1
lint: vet
	$(STATICCHECK) ./...

test:
	$(GO) test ./...

# The concurrency contracts: the telemetry layer, the worker pool, the
# HTTP compression service, the experiment scheduler (fake-runner +
# cheap real-runner tests), and the attack stack, whose single-goroutine
# counters a -progress reader snapshots mid-run.
race:
	$(GO) test -race ./internal/obs/... ./internal/par/... ./internal/server/... ./internal/pagestore/... ./internal/taint/ ./internal/core/
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
# decompressor on raw input, and the Huffman builder against its
# reference (the checked-in corpora under testdata/fuzz/ always run as
# part of `test`; this additionally explores for FUZZTIME per target).
FUZZTIME ?= 10s
test-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/compress/lz77/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/compress/lzw/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/compress/bwt/
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

# Cluster bench (DESIGN.md §10): two zipserverd instances with tiered
# hot/cold caches — the second mounting the first's cache as a peer tier
# over /internal/cache — driven by zipload's consistent-hash router with
# Zipf-skewed keys. Reports aggregate RPS, per-tier hit rates, and p99;
# then replays the identical seeded stream against a single plain-LRU
# instance and requires the XOR-of-SHA256 response digests to match
# byte-for-byte (topology may move bytes around, never change them).
CLUSTER_CLIENTS ?= 6
CLUSTER_REQS ?= 30
CLUSTER_SEED ?= 11
bench-cluster:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/zipserverd ./cmd/zipserverd; \
	$(GO) build -o $$tmp/zipload ./cmd/zipload; \
	$$tmp/zipserverd -addr 127.0.0.1:0 -addr-file $$tmp/addr1 \
		-cache-backend tiered -cache-mb 4 -cache-cold-mb 64 -cache-dir $$tmp/cold1 2>$$tmp/s1.log & \
	pid1=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr1 ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr1 ] || { echo "instance 1 never bound"; kill $$pid1; exit 1; }; \
	$$tmp/zipserverd -addr 127.0.0.1:0 -addr-file $$tmp/addr2 \
		-cache-backend tiered -cache-mb 4 -cache-cold-mb 64 -cache-dir $$tmp/cold2 \
		-cache-peer http://$$(cat $$tmp/addr1) 2>$$tmp/s2.log & \
	pid2=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr2 ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr2 ] || { echo "instance 2 never bound"; kill $$pid1 $$pid2; exit 1; }; \
	status=0; \
	$$tmp/zipload -urls http://$$(cat $$tmp/addr1),http://$$(cat $$tmp/addr2) \
		-clients $(CLUSTER_CLIENTS) -requests $(CLUSTER_REQS) -seed $(CLUSTER_SEED) \
		-zipf 1.2 -digest | tee $$tmp/cluster.txt || status=$$?; \
	kill -INT $$pid1 $$pid2 2>/dev/null; wait $$pid1 $$pid2 2>/dev/null || true; \
	[ $$status -eq 0 ] || exit $$status; \
	grep -q 'tier:' $$tmp/cluster.txt || { echo "no per-tier hit rates in the cluster report"; exit 1; }; \
	$$tmp/zipserverd -addr 127.0.0.1:0 -addr-file $$tmp/addr3 -cache-backend lru 2>$$tmp/s3.log & \
	pid3=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr3 ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr3 ] || { echo "baseline instance never bound"; kill $$pid3; exit 1; }; \
	$$tmp/zipload -url http://$$(cat $$tmp/addr3) \
		-clients $(CLUSTER_CLIENTS) -requests $(CLUSTER_REQS) -seed $(CLUSTER_SEED) \
		-zipf 1.2 -digest | tee $$tmp/single.txt || status=$$?; \
	kill -INT $$pid3 2>/dev/null; wait $$pid3 2>/dev/null || true; \
	[ $$status -eq 0 ] || exit $$status; \
	d1=$$(grep 'response digest' $$tmp/cluster.txt | awk '{print $$3}'); \
	d2=$$(grep 'response digest' $$tmp/single.txt | awk '{print $$3}'); \
	[ -n "$$d1" ] || { echo "cluster run produced no digest"; exit 1; }; \
	[ "$$d1" = "$$d2" ] || { echo "cluster digest $$d1 != single-LRU digest $$d2"; exit 1; }; \
	echo "bench-cluster: 2-instance tiered cluster byte-identical to single-LRU baseline ($$d1)"

# One-iteration hot-path smoke (CI runs this so compile or gross perf
# regressions on the taint/LZ77 paths and the in-process /v1 request
# path surface in PRs).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTaintAnalysis|BenchmarkLZ77Compress' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkServeHit|BenchmarkServeMiss' -benchtime 1x ./internal/server/

# Quick cross-layer check: SGX attack telemetry end to end.
smoke:
	$(GO) test -run TestExperimentsSmoke ./internal/experiments/

# Server smoke: build zipserverd + zipload, boot the server on an
# ephemeral port, hammer it for 2s across all codecs with round-trip
# verification, and require zero errors (zipload exits non-zero on any).
smoke-server:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/zipserverd ./cmd/zipserverd; \
	$(GO) build -o $$tmp/zipload ./cmd/zipload; \
	$$tmp/zipserverd -addr 127.0.0.1:0 -addr-file $$tmp/addr & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "zipserverd never bound"; kill $$pid; exit 1; }; \
	status=0; \
	$$tmp/zipload -url http://$$(cat $$tmp/addr) -clients 8 -duration 2s || status=$$?; \
	kill -INT $$pid 2>/dev/null; wait $$pid 2>/dev/null || true; \
	exit $$status

# smoke-obs: end-to-end observability check. Boots zipserverd with tracing,
# an access log, and a span sink; drives zipload; validates the Prometheus
# exposition with promcheck (the repo's own parser) including the series CI
# alerts on; and cross-checks zipstat -once -json against the run.
smoke-obs:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/zipserverd ./cmd/zipserverd; \
	$(GO) build -o $$tmp/zipload ./cmd/zipload; \
	$(GO) build -o $$tmp/zipstat ./cmd/zipstat; \
	$(GO) build -o $$tmp/promcheck ./cmd/promcheck; \
	$$tmp/zipserverd -addr 127.0.0.1:0 -addr-file $$tmp/addr \
		-access-log $$tmp/access.ndjson -trace-file $$tmp/spans.ndjson 2>$$tmp/server.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "zipserverd never bound"; kill $$pid; exit 1; }; \
	status=0; \
	addr=$$(cat $$tmp/addr); \
	$$tmp/zipload -url http://$$addr -clients 4 -duration 1s || status=$$?; \
	$$tmp/promcheck -url "http://$$addr/metrics?format=prom" \
		-require server_requests,server_request_latency_us_count,server_breaker_rejected,server_cache_hits \
		|| status=$$?; \
	$$tmp/zipstat -once -json http://$$addr || status=$$?; \
	[ -s $$tmp/spans.ndjson ] || { echo "no span records emitted"; status=1; }; \
	[ -s $$tmp/access.ndjson ] || { echo "no access-log records emitted"; status=1; }; \
	kill -INT $$pid 2>/dev/null; wait $$pid 2>/dev/null || true; \
	exit $$status

# smoke-pages: the remote compression-time oracle end to end (DESIGN.md
# §11). Boots zipserverd with the compressed page store mounted and a
# secret planted next to a 64-byte attacker region, then runs zippages
# over plain HTTP and requires it to recover the full secret from
# X-Page-Steps store costs alone.
smoke-pages:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/zipserverd ./cmd/zipserverd; \
	$(GO) build -o $$tmp/zippages ./cmd/zippages; \
	$$tmp/zipserverd -addr 127.0.0.1:0 -addr-file $$tmp/addr \
		-pagestore -pagestore-plant 'victim=64:key=HUNTER2SECRET000' 2>$$tmp/server.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "zipserverd never bound"; kill $$pid; exit 1; }; \
	status=0; \
	$$tmp/zippages -server http://$$(cat $$tmp/addr) -page victim \
		-prefix key= -len 16 | tee $$tmp/pages.txt || status=$$?; \
	kill -INT $$pid 2>/dev/null; wait $$pid 2>/dev/null || true; \
	[ $$status -eq 0 ] || exit $$status; \
	grep -q 'HUNTER2SECRET000' $$tmp/pages.txt || \
		{ echo "zippages did not recover the planted secret"; exit 1; }; \
	echo "smoke-pages: remote oracle recovered the planted secret over HTTP"

# Chaos suite (DESIGN.md §8). Three layers:
#   1. In-process chaos tests under -race: concurrent faulted server load
#      (zero round-trip corruption), breaker/deadline/disarmed-invisibility
#      contracts, retrying zipload clients, and the bzip2 ftab attack
#      recovering >99% of a 10 KB buffer under injected measurement noise.
#   2. End to end: zipserverd with ~10% injected faults (codec errors,
#      panics, output corruption, cache bit-flips, pool latency) hammered
#      by verifying zipload clients with backoff retries — zero unrecovered
#      errors, the process survives its own panics, SIGTERM exits within
#      the drain bound, and the final metrics snapshot proves faults fired.
#   3. Determinism: with faults disarmed, the full quick experiment suite
#      is byte-identical at -parallel 1, 2, and 4.
CHAOS_FAULTS = server.codec.compress=error:0.04,server.codec.compress=panic:0.02,server.codec.compress=corrupt:0.02,server.codec.decompress=error:0.05,server.codec.decompress=panic:0.02,server.cache.get=corrupt:0.03,server.gate.acquire=latency:0.05:300,server.cache.disk.write=error:0.05,server.cache.disk.read=error:0.05
test-chaos:
	ZIPCHAOS_FULL=1 $(GO) test -race -count=1 \
		-run 'TestChaos|TestDisarmedFaultsAreInvisible|TestRunLoadRetriesRecoverInjectedFaults|TestPageTrafficRecoversFromTransientCorruption' \
		./internal/server/ ./internal/zipchannel/ ./cmd/zipload/ ./internal/pagestore/
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -race -o $$tmp/zipserverd ./cmd/zipserverd; \
	$(GO) build -o $$tmp/zipload ./cmd/zipload; \
	$$tmp/zipserverd -addr 127.0.0.1:0 -addr-file $$tmp/addr \
		-cache-backend tiered -cache-mb 8 -cache-cold-mb 32 \
		-faults '$(CHAOS_FAULTS)' -fault-seed 7 -drain 5s -metrics $$tmp/metrics.json & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { echo "zipserverd never bound"; kill $$pid; exit 1; }; \
	url=http://$$(cat $$tmp/addr); \
	$$tmp/zipload -url $$url -clients 8 -duration 3s -retries 6 -retry-base 2ms || \
		{ echo "chaos load saw unrecovered errors or corruption"; kill $$pid; exit 1; }; \
	$$tmp/zipload -url $$url -clients 1 -requests 1 -retries 6 >/dev/null || \
		{ echo "server dead after chaos load (a panic escaped?)"; kill $$pid; exit 1; }; \
	kill -TERM $$pid; \
	for i in $$(seq 1 80); do kill -0 $$pid 2>/dev/null || break; sleep 0.1; done; \
	if kill -0 $$pid 2>/dev/null; then echo "SIGTERM exit exceeded the drain bound"; kill -9 $$pid; exit 1; fi; \
	wait $$pid 2>/dev/null || true; \
	[ -s $$tmp/metrics.json ] || { echo "no final metrics snapshot after SIGTERM"; exit 1; }; \
	grep -q 'fault\.server\.' $$tmp/metrics.json || \
		{ echo "metrics snapshot shows no injected faults — chaos never fired"; exit 1; }; \
	echo "chaos e2e: server survived injected faults, drained on SIGTERM, wrote metrics"; \
	$(GO) build -o $$tmp/experiments ./cmd/experiments; \
	for p in 1 2 4; do $$tmp/experiments -quick -json -parallel $$p 2>/dev/null > $$tmp/par$$p.json; done; \
	cmp $$tmp/par1.json $$tmp/par2.json && cmp $$tmp/par1.json $$tmp/par4.json || \
		{ echo "disarmed runs diverge across parallelism"; exit 1; }; \
	echo "chaos determinism: quick suite byte-identical at -parallel 1, 2, 4"

# Cluster chaos (DESIGN.md §13): two tiered instances — B mounting A's
# cache as its peer tier — under a verifying zipload with failover,
# hedging, and Retry-After-aware retries. Instance A is SIGKILLed (no
# drain, no Close) mid-load and restarted on the same address with the
# same cache directory, so its startup scrub has to recover the torn
# disk tier. The run must end with zero round-trip errors (exit 0, or 3
# if the post-run probe still saw A down); B's peer probation breaker
# must have opened during the outage and be closed again after fresh
# traffic probes the revived peer.
test-chaos-cluster:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/zipserverd ./cmd/zipserverd; \
	$(GO) build -o $$tmp/zipload ./cmd/zipload; \
	$$tmp/zipserverd -addr 127.0.0.1:0 -addr-file $$tmp/addr1 \
		-cache-backend tiered -cache-mb 4 -cache-cold-mb 64 -cache-dir $$tmp/cold1 2>$$tmp/sA.log & \
	pid1=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr1 ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr1 ] || { echo "instance A never bound"; kill $$pid1; exit 1; }; \
	addrA=$$(cat $$tmp/addr1); \
	$$tmp/zipserverd -addr 127.0.0.1:0 -addr-file $$tmp/addr2 \
		-cache-backend tiered -cache-mb 4 -cache-cold-mb 64 -cache-dir $$tmp/cold2 \
		-cache-peer http://$$addrA 2>$$tmp/sB.log & \
	pid2=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr2 ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr2 ] || { echo "instance B never bound"; kill $$pid1 $$pid2; exit 1; }; \
	addrB=$$(cat $$tmp/addr2); \
	$$tmp/zipload -urls http://$$addrA,http://$$addrB \
		-clients 6 -duration 8s -seed 11 -zipf 1.2 \
		-retries 8 -retry-base 5ms -retry-max 300ms -hedge 100ms >$$tmp/load.txt 2>&1 & \
	lpid=$$!; \
	sleep 2; \
	kill -9 $$pid1 2>/dev/null; wait $$pid1 2>/dev/null || true; \
	echo "test-chaos-cluster: SIGKILLed instance A ($$addrA) mid-load"; \
	sleep 2; \
	rm -f $$tmp/addr1; \
	$$tmp/zipserverd -addr $$addrA -addr-file $$tmp/addr1 \
		-cache-backend tiered -cache-mb 4 -cache-cold-mb 64 -cache-dir $$tmp/cold1 2>$$tmp/sA2.log & \
	pid1=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr1 ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr1 ] || { echo "instance A never rebound after restart"; kill $$pid1 $$pid2; exit 1; }; \
	echo "test-chaos-cluster: restarted A on $$addrA (same cache dir; startup scrub recovers it)"; \
	lstatus=0; wait $$lpid || lstatus=$$?; \
	cat $$tmp/load.txt; \
	if [ $$lstatus -ne 0 ] && [ $$lstatus -ne 3 ]; then \
		echo "zipload exit $$lstatus — round-trip verification failed under chaos"; \
		kill $$pid1 $$pid2 2>/dev/null; exit 1; fi; \
	grep -q ', 0 errors in' $$tmp/load.txt || \
		{ echo "load report shows unrecovered errors"; kill $$pid1 $$pid2 2>/dev/null; exit 1; }; \
	curl -s http://$$addrB/metrics >$$tmp/bmetrics.json; \
	grep -Eq '"server\.cache\.peer\.probation\.opens": *[1-9]' $$tmp/bmetrics.json || \
		{ echo "B's peer probation never opened during the outage"; kill $$pid1 $$pid2 2>/dev/null; exit 1; }; \
	$$tmp/zipload -url http://$$addrB -clients 2 -requests 25 -seed 99 -retries 6 >/dev/null || \
		{ echo "post-restart probe load against B failed"; kill $$pid1 $$pid2 2>/dev/null; exit 1; }; \
	curl -s http://$$addrB/healthz >$$tmp/bhealth.json; \
	grep -q '"peer_state": "closed"' $$tmp/bhealth.json || \
		{ echo "B's peer probation did not recover to closed after A returned"; \
		  cat $$tmp/bhealth.json; kill $$pid1 $$pid2 2>/dev/null; exit 1; }; \
	kill -INT $$pid1 $$pid2 2>/dev/null; wait $$pid1 $$pid2 2>/dev/null || true; \
	echo "test-chaos-cluster: zero errors through a SIGKILL+restart; peer probation opened and recovered"

# Regenerate golden files (obs snapshot, server /metrics, TaintChannel
# reports, experiments example manifest).
golden:
	$(GO) test ./internal/obs/ -run TestSnapshotGolden -update
	$(GO) test ./internal/server/ -run TestMetricsGolden -update
	$(GO) test ./internal/core/ -run TestReportGolden -update
	@set -e; out=cmd/experiments/testdata/sgx-quick.json; \
	$(GO) run ./cmd/experiments -run sgx -quick -json > $$out.tmp || { rm -f $$out.tmp; exit 1; }; \
	mv $$out.tmp $$out

clean:
	$(GO) clean ./...
