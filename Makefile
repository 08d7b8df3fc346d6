# CI entry points. `make ci` is what a runner should execute: the race
# detector is load-bearing here — internal/lab introduced the repo's
# goroutines, and TestLabPoolRace exists specifically to give -race real
# interleavings to check.

GO ?= go

.PHONY: ci fmt vet lint lint-fast build examples examples-golden test race race-shards allocs bench-test bench-check bench-baseline bench-pairs api-check api-golden clean

ci: fmt vet lint build examples race-shards race allocs bench-test bench-check api-check

# gofmt drift anywhere in the tree, bench/ included, fails the build.
fmt:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

# ctmsvet is the repo's own analyzer suite (internal/analyzers), all
# four tiers: the syntactic determinism/exhaustive rules, the typed
# mbuflife rule, the interprocedural shardowned/seedflow/barrier rules,
# and the dimensional-inference dim rule DESIGN.md §7 specifies. It
# exits nonzero with file:line:col diagnostics on any finding and
# leaves the machine-readable artifact in ctmsvet.json for CI to
# archive. Allocation on the data path is not linted: `allocs` below is
# the allocation gate.
lint:
	$(GO) run ./cmd/ctmsvet -out ctmsvet.json

# The edit-compile loop's lint: the syntactic tier alone over the whole
# tree (selecting only its analyzers skips the go/types load, so it
# takes a fraction of a second). All four tiers run in `make lint` (and
# ci), which stays the gate.
lint-fast:
	$(GO) run ./cmd/ctmsvet -analyzers determinism,exhaustive

build:
	$(GO) build ./...

# The example programs and the tools (tapdump -o and -i, ringsim,
# ctmsplot), run end to end: build only compiles them. Each one's stdout
# must match its golden in examples/testdata/, and any difference or
# nonzero exit fails here. examples-golden re-pins the goldens.
examples:
	bash examples/run.sh

examples-golden:
	bash examples/run.sh -update

test:
	$(GO) test ./...

# Both race targets stop at the first report (halt_on_error), so a race
# fails in moments instead of running the rest of the suite first.
race:
	GORACE=halt_on_error=1 $(GO) test -race ./...

# The sharded engine's dedicated race gate: E18 serial-vs-4-shard
# bit-identity, the E20 mesh smoke (per-link windows, the barrier-decided
# idle-round skip, pooled forwarding), the randomized mesh oracle with
# its skip-heavy sparse cases and the round barrier's generation stress
# test (spinning, park-only and one-party), all under the race detector.
# It is the one gate on the engine's mutex-guarded fields (the inbox and
# the barrier's arrival count): an unlocked access is a race report, a
# lock left held hangs the mesh until the 2-minute timeout (the run
# takes seconds). `make race` already covers these tests via ./..., but
# this target keeps them runnable (and named) on their own, and ci runs
# it first so a held lock fails in minutes rather than at go test's
# 10-minute default.
race-shards:
	GORACE=halt_on_error=1 $(GO) test -race -timeout 2m -run 'TestE18ShardedSmoke|TestShardSerialEquivalence|TestE20MeshSmoke|TestMeshOracleWorkerCounts|TestBarrierGenerations' \
		./internal/core ./internal/topo

# The allocation gate, the one check that the data path does not
# allocate: the real-run budgets (internal/core/allocbudget_test.go hold
# warmed whole runs to allocations and bytes per event) and every
# per-layer testing.AllocsPerRun test, picked by name across ./... . A
# new AllocsPerRun test must match ALLOC_TESTS. The race detector's
# instrumentation allocates, so the budget file is built without it and
# `race` never runs it; this target runs without -race.
ALLOC_TESTS = AllocationBudget|DoesNotAllocate|ZeroAlloc|AllocateNothing|AllocatesOnce|RoundTripAllocations|FIFOOrderAcrossCompaction|HalfEnvelopePoolReuses|HistogramModeReusesBins

allocs:
	$(GO) test -count=1 -run '$(ALLOC_TESTS)' ./...

# The host-cost benchmark (bench/) is a module of its own, so ./... above
# never reaches its tests. They include the bench/golden.json check that
# pins every workload's Report and Fingerprint digest at seed 1991: a
# model change that alters any output fails here.
bench-test:
	cd bench && $(GO) test ./...

# Determinism gate: run the whole E1–E20 matrix at smoke scale, plus
# the E20 mesh rows, the E19 population rows and the lint timings, and
# compare against the committed baseline. ctmsbench exits nonzero when an
# experiment deviates from the paper's shape or a sharded mesh run leaves
# its serial fingerprint, and -compare when any count (matrix events and
# sim_seconds, experiment verdicts, mesh rounds and skips, forwarded
# frames, population admissions) differs from the baseline by even one,
# or a lint tier takes more than twice its baseline wall time plus
# 0.5 s. Every count is the same at any parallelism and on any host, so
# the gate runs at default parallelism. Host cost (speed, allocations) is
# bench/'s to gate. Both targets read BENCH_FLAGS, so the check always
# runs what the baseline recorded. Refresh it with: make bench-baseline.
BENCH_FLAGS = -minutes 0.5 -topo 4,8 -population -lint

bench-check:
	$(GO) run ./cmd/ctmsbench $(BENCH_FLAGS) \
		-benchout /tmp/ctmsbench-check.json -compare BENCH.baseline.json

bench-baseline:
	$(GO) run ./cmd/ctmsbench $(BENCH_FLAGS) -benchout BENCH.baseline.json

# A perf claim's evidence: PAIRS alternated pairs of one bench/ workload,
# BASE (a commit) against the working tree, with each side's median and
# quartiles and the working tree's win count (scripts/benchpairs.sh).
# Not part of ci: it takes PAIRS × 2 × SECONDS of wall time and more.
BASE ?= HEAD
PAIRS ?= 10
WORKLOAD ?= paper-stream
SECONDS ?= 8
SEED ?= 1991

bench-pairs:
	BASE=$(BASE) PAIRS=$(PAIRS) WORKLOAD=$(WORKLOAD) SECS=$(SECONDS) SEED=$(SEED) \
		bash scripts/benchpairs.sh

# The public API surface (go doc -all of the root package) is pinned in
# api/golden.txt: api-check fails on any drift, api-golden accepts it.
# Pinning go doc output catches signature changes AND doc-comment changes,
# both of which are API in a reproduction whose README quotes them.
api-check:
	$(GO) doc -all . | diff -u api/golden.txt - \
		|| { echo "public API drifted from api/golden.txt; run 'make api-golden' to accept"; exit 1; }

api-golden:
	$(GO) doc -all . > api/golden.txt

clean:
	$(GO) clean ./...
	rm -f ctmsvet.json
