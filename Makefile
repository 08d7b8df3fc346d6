# CI entry points. `make ci` is what a runner should execute: the race
# detector is load-bearing here — internal/lab introduced the repo's
# goroutines, and TestLabPoolRace exists specifically to give -race real
# interleavings to check.

GO ?= go

.PHONY: ci fmt vet lint lint-fast build test race race-shards bench-test bench-check bench-baseline api-check api-golden clean

ci: fmt vet lint build race race-shards bench-test bench-check api-check

# gofmt drift anywhere in the tree, bench/ included, fails the build.
fmt:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

# ctmsvet is the repo's own analyzer suite (internal/analyzers), all
# four tiers: the syntactic determinism/exhaustive rules, the typed
# mbuflife/locking/hotpath rules, the interprocedural
# shardowned/seedflow/barrier rules, and the dimensional-inference dim
# rule DESIGN.md §7 specifies. It exits nonzero with file:line:col diagnostics on any finding and
# leaves the machine-readable artifact in ctmsvet.json for CI to
# archive.
lint:
	$(GO) run ./cmd/ctmsvet -out ctmsvet.json

# The edit-compile loop's lint: the syntactic tier alone (selecting
# only its analyzers skips the go/types load), restricted to files
# differing from HEAD — sub-second on a clean tree, still instant with a
# handful of files in flight. The full tree and all four tiers run in
# `make lint` (and ci), which stays the gate.
lint-fast:
	$(GO) run ./cmd/ctmsvet -analyzers determinism,exhaustive -changed HEAD

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sharded engine's dedicated race gate: E18 serial-vs-4-shard
# bit-identity, the E20 mesh smoke (per-link windows, drain-round skip
# protocol, pooled forwarding) and the randomized mesh oracle, all under
# the race detector. `make race` already covers them via ./..., but this
# target keeps the smokes runnable (and named) on their own so a future
# test filter can't silently drop them from ci.
race-shards:
	$(GO) test -race -run 'TestE18ShardedSmoke|TestShardSerialEquivalence|TestE20MeshSmoke|TestMeshOracleWorkerCounts' \
		./internal/core ./internal/topo

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
