# V-System distributed name interpretation — reproduction build targets.

GO ?= go

# Wall-clock budget for each live fuzz target in `make fuzz`.
FUZZTIME ?= 10s

# Statement-coverage floor for `make cover`: every internal package
# measured against every test in the tree (-coverpkg), raised to 92.0 at a
# measured 92.4% (team tests reach a few branches by schedule, so the floor
# sits a little under the measure). Raise it when coverage rises; never
# lower it to make a regression pass.
COVERAGE_FLOOR ?= 92.0

# Ceiling for `make reach`: the internal functions only tests reach.
# Every such function is reached by a program or deleted unless ROADMAP
# item 9 says why it stays. Lower it when the count falls; never raise it
# to make a regression pass.
REACH_CEILING ?= 19

# The deterministic documents `vbench -<doc> FILE` exports, each pinned
# byte-for-byte by the committed BENCH_<doc>.json (EXPERIMENTS.md
# A14–A19: metrics, replication, sharded engine, lease coherence,
# population scale, observability). Each is one envelope whose legs are
# the scenario a run was given and what it recorded; the version-1
# documents it replaced are kept under internal/experiments/testdata/v1/.
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
# byte difference that a single run cannot see. TestDocumentReruns
# reruns committed document scenarios and compares their evidence; the
# rig's fault tests run through one harness (internal/rig/swarm_test.go),
# whose two-run compare the schedule tests here switch on.
# TestRunVerdict boots paced Paper runs, some set up by hand before
# (*Topology).Run, so a verdict left over from the first run shows.
	$(GO) test -race -count=2 -run 'TestChaosScheduleDeterministic|TestA10Deterministic|TestA11Deterministic|TestExperimentsDeterministic|TestObsJSONDeterministic|TestZipfDeterministic|TestReplicaDeterministic|TestScenarioIsPlainData|TestDocumentReruns|TestRunScenarioDeterministic|TestRunVerdict' ./internal/experiments/ ./internal/popgen/ ./internal/rig/
# Engine equivalence on two P: the engine folds its lanes onto at most
# GOMAXPROCS goroutines, so four lanes share two that really run at once,
# each stepping two lanes' clients in key order (at one P the engine is a
# single goroutine and nothing interleaves).
	GOMAXPROCS=2 $(GO) test -race -run 'TestShardedEquivalence|TestShardedLeaseEquivalence|TestOpenLoopEquivalence|TestParallelDriverEquivalence|TestShardedUnderChaos|TestRunScenarioDeterministic' ./internal/rig/
# Teams, replicated members and group sends on four P: every server is
# served, so these rows may not depend on how many run at once. Two lanes
# through one cache tier: no answer may share a message across lanes. The
# kernel's group tests: a group transaction's clones complete into one
# fan-in from whichever goroutine runs them. Four lanes on four P,
# unfolded: a faulted run equals its one-lane reference, and the driver
# runs no more goroutines than processors.
# Four readers of the name index beside a writer that compacts its arena
# under them. Four clients using each of the nine CSNH servers at once.
# Generated fault schedules over fs1's three replicated members and over
# the sharded engine, run through the one harness: rig.Run holds each
# seed to every oracle, the trace and image ones among them. The sampled tracer
# keeps the same roots at one P and at four, its spans written with no
# lock; a group's members write their send's subtree from their own
# goroutines under its lock. Four goroutines record into one histogram
# and four send over one wire: the totals equal a sequential replay's.
# Four goroutines' lease hits race a registry's install: it counts each
# hit after its install once (TestPublishedSeriesCountOnce). Three team
# workers and two clients record into one server's and one target's
# series while a goroutine swaps registries: each install's one reading
# is the outgoing registry's final value and the incoming one's base, so
# every event lands in exactly one (TestSeriesHandlesSharedByTeam). Four
# goroutines record into the flight ring, which takes no lock: sealed,
# it equals a sequential replay. A session's results survive its next
# requests, which reuse its one message, a retry's re-mapping among them;
# so does every name a server kept from that message.
	GOMAXPROCS=4 $(GO) test -race -run 'TestReplicaDeterministic|TestGeneratedReplicatedSchedules|TestA11Deterministic|TestChaosScheduleDeterministic|TestA6IndependentOfGOMAXPROCS|TestTierAnswersInEachClientsRequest|TestGroup|TestForwardToGroup|TestConcurrentGroupSends|GroupUnderPartition|RacingGroupIPC|TestServedIndistinguishable|TestFaultedRunEqualsSequential|TestEngineFoldsLanesOntoProcessors|TestConcurrentReaders|TestProtocolIsUniformConcurrent|TestSampledRetentionIndependentOfGOMAXPROCS|TestHistogramConcurrentRecordsMatchReference|TestStatsSumConcurrentUnicasts|TestPublishedSeriesCountOnce|TestSeriesHandlesSharedByTeam|TestConcurrentRecordsSealAsSequential|TestSessionResultsSurviveNextRequest|TestServersKeepNoBorrowedName' ./internal/experiments/ ./internal/rig/ ./internal/ncache/ ./internal/kernel/ ./internal/nametree/ ./internal/trace/ ./internal/metrics/ ./internal/netsim/ ./internal/flight/ ./internal/core/
# Zero-allocation gates skip themselves under the race detector, whose
# instrumentation allocates. The last three are the file path's: a block
# read lands in the reader's buffer, no block reads Info(), and a block
# read, write and release answer in their request. A resolution answers
# in the message that asked: TestLeaseHitZeroAlloc,
# TestMapContextAnswersInRequest, TestCallbackAnswersInItsClone. A group
# send allocates its clones, a snapshot and a fan-in: TestGroupSendAllocs.
# A truncated file's rewrite takes back the pages it freed:
# TestRewriteReusesFreedPages. Recording a histogram observation and a
# buffer-cache hit, miss or eviction allocate nothing:
# TestHistogramRecordZeroAlloc, TestBlockCacheAccessZeroAlloc. The
# paper's routines allocate what they hand back and what the servers
# keep: TestPaperRoutinesAllocate. A server reads a request's name where
# it lies: TestCSNameBorrowsSegment, and a repeat lease grant allocates
# nothing (TestGrantLeavesIndexUntouched).
	$(GO) test -count=1 -run 'TestResolve10e5ZeroAlloc|TestSendZeroAllocUntraced|TestServedSendZeroAllocUntraced|TestGroupSendAllocs|TestMapContextAnswersInRequest|TestLeaseHitZeroAlloc|TestCallbackAnswersInItsClone|TestUntracedRetryZeroAlloc|TestRecordZeroAlloc|TestSealSteadyStateZeroAlloc|TestSampledDroppedRootZeroAlloc|TestObserveZeroAlloc|TestStoreHeldNameZeroAlloc|TestIdleMetersOfferNothing|TestIdleCountersOfferNothing|TestGrantLeavesIndexUntouched|TestBoundNameFootprint|TestObservedOpFootprint|TestCodeStringZeroAlloc|TestDecodeDescriptorsAllocatesOnce|TestListAllocatesOnlyItsResult|TestInvalidateUncachedFileZeroAlloc|TestRewriteReusesFreedPages|TestReadAllLandsInReadersBuffer|TestRegistryReadsInfoOnce|TestInstanceOpsAnswerInRequest|TestHistogramRecordZeroAlloc|TestBlockCacheAccessZeroAlloc|TestPaperRoutinesAllocate|TestCSNameBorrowsSegment' ./internal/nametree/ ./internal/kernel/ ./internal/core/ ./internal/client/ ./internal/flight/ ./internal/trace/ ./internal/namestat/ ./internal/lease/ ./internal/prefix/ ./internal/proto/ ./internal/fileserver/ ./internal/rig/ ./internal/vio/ ./internal/metrics/
	$(MAKE) bench-smoke
	$(MAKE) golden-guard
	$(MAKE) cover
	$(MAKE) reach

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
# size, on one P as the ledger pins it; W=ZipfChurnSetup is define_churn's
# set-up alone at full size, 3×10⁵ names bound and nothing driven (a
# tenth-size shape keeps its names in cache) — kept in a temp dir, hottest
# 25 by cumulative share printed, and the 25 sites that allocate the most
# objects (alloc_objects, flat: where allocs_per_op comes from). Then the
# live heap: one more iteration with every 512th byte sampled, whose
# profile is written after a final GC with
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
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount 25 $$tmp/repro.test $$tmp/mem.pprof; \
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

# gofmt -l exits 0 whatever it lists, so a listed file fails the gate here.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt would reformat:"; echo "$$out"; exit 1; }

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
	$(GO) test -fuzz 'FuzzDecodeDescriptors' -fuzztime $(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz 'FuzzDecodeDescriptor$$' -fuzztime $(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz 'FuzzCSName' -fuzztime $(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz 'FuzzCacheKey' -fuzztime $(FUZZTIME) ./internal/client/
	$(GO) test -fuzz 'FuzzNegativeCacheKey' -fuzztime $(FUZZTIME) ./internal/client/
	$(GO) test -fuzz 'FuzzModelPaths' -fuzztime $(FUZZTIME) ./internal/namemodel/
	$(GO) test -fuzz 'FuzzNametreeLookup' -fuzztime $(FUZZTIME) ./internal/nametree/
	$(GO) test -fuzz 'FuzzTopKMatchesReference' -fuzztime $(FUZZTIME) ./internal/namestat/

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
# under unit tests only, if at all. Fails when the count exceeds
# REACH_CEILING, the way `make cover` holds COVERAGE_FLOOR.
reach:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) test -coverprofile=$$tmp/root.out -coverpkg=./internal/... ./cmd/... ./examples/... >/dev/null; \
	$(GO) -C bench test -coverprofile=$$tmp/bench.out -coverpkg=repro/internal/... . >/dev/null; \
	{ cat $$tmp/root.out; tail -n +2 $$tmp/bench.out; } > $$tmp/reach.out; \
	echo "functions only tests reach:"; \
	$(GO) tool cover -func=$$tmp/reach.out | awk -v c="$(REACH_CEILING)" '$$3 == "0.0%" { print "  " $$1, $$2; n++ } \
		END { printf "%d functions (ceiling %d)\n", n, c; if (n > c + 0) { print n " functions only tests reach, above the ceiling " c; exit 1 } }'

# The size every simplicity PR quotes (ROADMAP "small"): non-test Go
# lines outside the nested benchmark module. Then the paper's own measure
# of uniformity (§6: a prefix server was 4.5 KB of code): the lines each
# small server adds beyond the protocol — the prefix server with the
# name index its table is — and the shared protocol half.
# Then the experiment harness, the largest package, the two budgets
# ROADMAP states — the rig (item 2) and the kernel (item 5) — the
# file server, the paper's one large server, and namestat, the prefix
# server's one per-name observer table (item 6(a)).
SERVER_PKGS = prefix nametree execserver inetserver mailserver pipeserver printserver termserver timeserver
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@for p in $(SERVER_PKGS) experiments rig kernel fileserver namestat; do \
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
