# V-System distributed name interpretation — reproduction build targets.

GO ?= go

# Wall-clock budget for each live fuzz target in `make fuzz`.
FUZZTIME ?= 10s

# Statement-coverage floor for `make cover`: every internal package
# measured against every test in the tree (-coverpkg), re-based when the
# seven small servers moved onto core.Flat (measured 89.6%, the floor a
# little under it because team tests reach a few branches by schedule; at
# that PR's parent, own tests only read 83.5% where this way read 88.7%).
# Raise it when coverage rises; never lower it to make a regression pass.
COVERAGE_FLOOR ?= 89.4

# The deterministic documents `vbench -<doc> FILE` exports, each pinned
# byte-for-byte by the committed BENCH_<doc>.json (EXPERIMENTS.md
# A14–A19: metrics, replication, sharded engine, lease coherence,
# population scale, observability).
GOLDEN_DOCS = metrics replica shard cache zipf obs
BENCH_DOCS = $(GOLDEN_DOCS:%=bench-%)

.PHONY: all check test race bench profile bench-json bench-smoke bench-pair bench-gate $(BENCH_DOCS) golden-guard vet fmt fuzz cover reach loc experiments examples clean

all: vet test

# Full verification gate. `go test -race ./...` already runs every test
# once; each later step is kept only because it differs from that in
# kind, as its comment says.
check: vet
	$(GO) test -race ./...
# Determinism: -count=2 runs each schedule twice in one process, so
# state leaking between runs (pools, package variables) shows up as a
# byte difference that a single run cannot see.
	$(GO) test -race -count=2 -run 'TestChaosScheduleDeterministic|TestA10Deterministic|TestA11Deterministic|TestExperimentsDeterministic|TestObsJSONDeterministic|TestZipfDeterministic|TestReplicaDeterministic|TestScenarioIsPlainData|TestRunScenarioDeterministic' ./internal/chaos/ ./internal/experiments/ ./internal/popgen/ ./internal/rig/
# Engine equivalence on one P: lanes interleave only where they block,
# the schedule a multi-CPU race run never produces.
	GOMAXPROCS=1 $(GO) test -race -run 'TestShardedEquivalence|TestShardedLeaseEquivalence|TestOpenLoopEquivalence|TestParallelDriverEquivalence|TestShardedUnderChaos|TestRunScenarioDeterministic' ./internal/rig/
# Teams, replica members and group sends on four P: every server is
# served, so these rows may not depend on how many run at once. Two lanes
# through one cache tier: no answer may share a message across lanes. The
# kernel's group tests: a group transaction's clones complete into one
# fan-in from whichever goroutine runs them.
	GOMAXPROCS=4 $(GO) test -race -run 'TestReplicaDeterministic|TestA11Deterministic|TestChaosScheduleDeterministic|TestA6IndependentOfGOMAXPROCS|TestTierAnswersInEachClientsRequest|TestGroup|TestForwardToGroup|TestConcurrentGroupSends|GroupUnderPartition|RacingGroupIPC|TestServedIndistinguishable' ./internal/chaos/ ./internal/experiments/ ./internal/rig/ ./internal/ncache/ ./internal/kernel/
# Zero-allocation gates skip themselves under the race detector, whose
# instrumentation allocates. The last two are the file path's: a block
# read lands in the reader's buffer, and no block reads Info(). A
# resolution answers in the message that asked: TestLeaseHitZeroAlloc,
# TestMapContextAnswersInRequest, TestCallbackAnswersInItsClone. A group
# send allocates its clones, a snapshot and a fan-in: TestGroupSendAllocs.
	$(GO) test -count=1 -run 'TestResolve10e5ZeroAlloc|TestSendZeroAllocUntraced|TestServedSendZeroAllocUntraced|TestGroupSendAllocs|TestMapContextAnswersInRequest|TestLeaseHitZeroAlloc|TestCallbackAnswersInItsClone|TestUntracedRetryZeroAlloc|TestRecordZeroAlloc|TestSealSteadyStateZeroAlloc|TestSampledDroppedRootZeroAlloc|TestObserveZeroAlloc|TestStoreHeldNameZeroAlloc|TestGrantLeavesIndexUntouched|TestBoundNameFootprint|TestObservedOpFootprint|TestCodeStringZeroAlloc|TestDecodeDescriptorsAllocatesOnce|TestListAllocatesOnlyItsResult|TestInvalidateUncachedFileZeroAlloc|TestReadAllLandsInReadersBuffer|TestRegistryReadsInfoOnce' ./internal/nametree/ ./internal/kernel/ ./internal/core/ ./internal/client/ ./internal/flight/ ./internal/trace/ ./internal/namestat/ ./internal/lease/ ./internal/prefix/ ./internal/proto/ ./internal/fileserver/ ./internal/rig/ ./internal/vio/
	$(MAKE) bench-smoke
	$(MAKE) golden-guard
	$(MAKE) cover

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Where does the time go, and what stays? CPU and allocation profiles of
# one root-module benchmark — W=ZipfMiss, W=ZipfHit, W=ZipfObserved,
# W=ZipfChurn and W=FileIO are the ledger's resolve_miss, resolve_hit,
# resolve_observed, define_churn and paper_fileio shapes at a tenth of the
# size, on one P as the ledger pins it — kept in a temp dir, hottest 25 by
# cumulative share printed. Then the live heap: one more iteration with
# every 512th byte sampled, whose profile is written after a final GC with
# the booted topology still referenced (benchLive), largest 25 holders
# printed — the ledger's heap_live_mb point. Read this before attributing
# a remainder bench/'s probes leave unexplained. PROFILE_N is the
# iterations per benchmark: a shape is a whole run, but W=E1MessageTransaction
# is one Send an iteration to a served echo (its local and remote legs price
# the path every server takes) and wants PROFILE_N=2000000x.
W ?= ZipfMiss
PROFILE_N ?= 20x
profile:
	@set -e; tmp=$$(mktemp -d); \
	$(GO) test -run '^$$' -bench 'Benchmark$(W)$$' -benchtime $(PROFILE_N) -cpu 1 \
		-cpuprofile $$tmp/cpu.pprof -memprofile $$tmp/mem.pprof -o $$tmp/repro.test .; \
	$(GO) tool pprof -top -cum -nodecount 25 $$tmp/repro.test $$tmp/cpu.pprof; \
	$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount 25 $$tmp/repro.test $$tmp/mem.pprof; \
	$$tmp/repro.test -test.run '^$$' -test.bench 'Benchmark$(W)$$' -test.benchtime 1x -test.cpu 1 \
		-test.memprofilerate 512 -test.memprofile $$tmp/heap.pprof >/dev/null; \
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount 25 $$tmp/repro.test $$tmp/heap.pprof; \
	echo "profiles kept in $$tmp"

# Machine-readable per-experiment results (the perf trajectory).
bench-json:
	$(GO) run ./cmd/vbench -json BENCH_vbench.json > vbench_output.txt

# Regenerate one deterministic document, e.g. `make bench-cache`.
# bench-zipf is the slowest (~20 s: the 10⁶-name legs).
$(BENCH_DOCS): bench-%:
	$(GO) run ./cmd/vbench -$* BENCH_$*.json

# The wall-clock benchmark (BENCHMARK.json, bench/README.md) is a nested
# module that `go build ./...` and `go test ./...` cannot see: vet it
# and run its own tests against this tree's rig API (~4 s).
bench-smoke:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# Paired wall-clock comparison (cmd/benchpair): the benchmark on BASE and
# on the working tree, alternating which runs first seed by seed, each run
# `bash bench/run.sh` at BENCHMARK.json's 20 s; one row per workload —
# both medians, the base's interquartile range, pairs won, a verdict — is
# appended to LEDGER.json. BASE and SEEDS are required; W names workloads
# here only when given on the command line (its default is profile's), and
# unset, every workload runs; NOTE is recorded in every row. Four seeds are
# ≈ 3 min a workload; no verdict is a gain on fewer than ten.
#   make bench-pair BASE=HEAD~1 W=paper_fileio SEEDS=11,12,13,14,15,16,17,18,19,20 NOTE='claim: ...'
# bench-gate is the same against the previous commit.
BENCH_W = $(if $(filter command line environment,$(origin W)),$(W))
bench-pair:
	@test -n '$(BASE)' -a -n '$(SEEDS)' || { echo 'usage: make bench-pair BASE=<rev> SEEDS=<seed,...> [W=<workload,...>] [NOTE=<text>]' >&2; exit 2; }
	$(GO) run ./cmd/benchpair -base '$(BASE)' -w '$(BENCH_W)' -seeds '$(SEEDS)' -note '$(NOTE)'

bench-gate:
	$(MAKE) bench-pair BASE=HEAD~1

# Byte-identity guard for the committed golden outputs: no change may
# perturb a single virtual-time result, trace span, or metrics quantile.
# Regenerating vbench_output.txt with the metrics registry installed
# doubles as the zero-virtual-cost gate; the same run's -json results
# pin BENCH_vbench.json. Regenerates every golden into a scratch dir,
# then compares byte-for-byte.
golden-guard:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/vbench ./cmd/vbench; \
	$$tmp/vbench -json $$tmp/BENCH_vbench.json > $$tmp/vbench_output.txt; \
	$$tmp/vbench -trace $$tmp/golden_trace.json >/dev/null; \
	for d in $(GOLDEN_DOCS); do $$tmp/vbench -$$d $$tmp/BENCH_$$d.json >/dev/null; done; \
	for f in vbench_output.txt BENCH_vbench.json internal/experiments/testdata/golden_trace.json $(GOLDEN_DOCS:%=BENCH_%.json); do \
		cmp $$f $$tmp/$$(basename $$f) || { echo "golden outputs drifted from committed files"; exit 1; }; \
	done; \
	echo "golden outputs byte-identical"

vet:
	$(GO) vet ./...
	gofmt -l .

fmt:
	gofmt -w .

# Live fuzzing of every decoder and name-handling routine that faces
# arbitrary bytes, FUZZTIME each. Seed corpora live under each
# package's testdata/fuzz/ and replay in plain `go test`. The quote in
# 'FuzzDecodeDescriptor matches the anchored name only (not
# FuzzDecodeDescriptors).
fuzz:
	$(GO) test -fuzz 'FuzzMatchName' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -fuzz 'FuzzParse' -fuzztime $(FUZZTIME) ./internal/prefix/
	$(GO) test -fuzz 'FuzzUnmarshal' -fuzztime $(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz 'FuzzDecodeDescriptors' -fuzztime $(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz 'FuzzDecodeDescriptor$$' -fuzztime $(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz 'FuzzCSName' -fuzztime $(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz 'FuzzCacheKey' -fuzztime $(FUZZTIME) ./internal/client/
	$(GO) test -fuzz 'FuzzNegativeCacheKey' -fuzztime $(FUZZTIME) ./internal/client/
	$(GO) test -fuzz 'FuzzModelPaths' -fuzztime $(FUZZTIME) ./internal/namemodel/
	$(GO) test -fuzz 'FuzzNametreeLookup' -fuzztime $(FUZZTIME) ./internal/nametree/
	$(GO) test -fuzz 'FuzzFlightRoundTrip' -fuzztime $(FUZZTIME) ./internal/flight/

# Statement coverage with a recorded floor: fails if total coverage
# drops below COVERAGE_FLOOR. A statement counts as covered when any test
# in the tree reaches it (-coverpkg=./internal/...), so what is left at
# 0.0% is code nothing reaches — printed, so dead surface is visible.
# COVER_PKGS are printed beside the total: the lease mechanism and its
# three callers, the packages ROADMAP item 3 raised by testing failure
# paths, the three observers whose storage ROADMAP item 5(a) rewrote, and
# vio, whose client side had no test of its own until its ReadAll was
# rewritten. The merged profile repeats each block once per test binary;
# the awk below folds them.
COVER_PKGS = client ncache prefix lease trace flight namestat vio
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./internal/... ./...
	@for p in $(COVER_PKGS); do \
		awk -v p="$$p" 'NR > 1 && index($$1, "repro/internal/" p "/") == 1 { stmts[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
			END { for (b in stmts) { n += stmts[b]; if (hit[b]) c += stmts[b] } \
				printf "internal/%s coverage: %.1f%%\n", p, n ? 100 * c / n : 0 }' coverage.out; \
	done
	@echo "functions no test reaches:"; \
	$(GO) tool cover -func=coverage.out | awk '$$3 == "0.0%" { print "  " $$1, $$2 }'
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
	{ echo "coverage $$total% fell below floor $(COVERAGE_FLOOR)%"; exit 1; }

# What only tests reach. `make cover` lists the functions no test
# reaches; this lists the functions of internal/ no program reaches: the
# tests of cmd/, examples/ and the nested benchmark module run those
# programs end to end, so a function at 0.0% in their merged profile runs
# under unit tests only, if at all. Most of it is protocol surface that
# stays (MoveFrom, directory-record writes); the rest is where a knob
# nobody sets shows. Not part of `make check`.
reach:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) test -coverprofile=$$tmp/root.out -coverpkg=./internal/... ./cmd/... ./examples/... >/dev/null; \
	$(GO) -C bench test -coverprofile=$$tmp/bench.out -coverpkg=repro/internal/... . >/dev/null; \
	{ cat $$tmp/root.out; tail -n +2 $$tmp/bench.out; } > $$tmp/reach.out; \
	echo "functions only tests reach:"; \
	$(GO) tool cover -func=$$tmp/reach.out | awk '$$3 == "0.0%" { print "  " $$1, $$2; n++ } END { print n + 0, "functions" }'

# The size every simplicity PR quotes (ROADMAP "small"): non-test Go
# lines outside the nested benchmark module. Then the paper's own measure
# of uniformity (§6: a prefix server was 4.5 KB of code): the lines each
# small server adds beyond the protocol, and the shared protocol half.
# Then the experiment harness, the largest package, and the two budgets
# ROADMAP states: the rig (item 2) and the kernel (item 5).
SERVER_PKGS = execserver inetserver mailserver pipeserver printserver termserver timeserver
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@for p in $(SERVER_PKGS) experiments rig kernel; do \
		printf "internal/%s %s\n" $$p $$(cat $$(find internal/$$p -name '*.go' -not -name '*_test.go') | wc -l); \
	done
	@printf "internal/core/flat.go %s\n" $$(wc -l < internal/core/flat.go)

# Regenerate every paper table and figure (paper vs. measured).
experiments:
	$(GO) run ./cmd/vbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/diskless
	$(GO) run ./examples/multiuser
	$(GO) run ./examples/mailnames
	$(GO) run ./examples/replicated

# The deliverable capture the repository ships with.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
