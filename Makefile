# Developer entry points. `make check` is the tier-1 verify referenced
# from ROADMAP.md; `make race` exercises the concurrent packages (the
# worker-pool executor, the vector kernels, the solvers built on them,
# the shared gather-window batcher and the fault-injection harness) under
# the race detector at 1, 2 and 4 cores, so timing assumptions that hold
# only at some core counts fail; `make fuzz`
# runs a short smoke pass of every fuzz target over the untrusted-input
# parsers and the exact block counter;
# `make gencheck` regenerates the block kernels into a temp dir and fails
# if the committed *_gen.go files have drifted from the generator.

GO ?= go

RACE_PKGS = ./internal/workpool ./internal/parallel ./internal/vecops ./internal/solver \
    ./internal/conformance ./internal/csrdu ./internal/faultcheck \
    ./internal/server ./internal/metrics ./internal/sell ./internal/shard \
    ./internal/overlay ./internal/batch

FUZZTIME ?= 5s

.PHONY: check vet build test race fuzz gencheck bench bench-json loc

check: vet build test race fuzz gencheck

# gencheck guards against generator drift: the committed *_gen.go kernel
# sources must match what the generator emits today.
gencheck:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./internal/kernels/genkernels -out "$$tmp" && \
	status=0 && \
	for f in "$$tmp"/*_gen.go; do \
		if ! diff -u internal/kernels/$$(basename "$$f") "$$f"; then status=1; fi; \
	done && \
	if [ $$status -ne 0 ]; then \
		echo "gencheck: committed *_gen.go files drifted from the generator; run go generate ./internal/kernels"; \
		exit 1; \
	fi && echo "gencheck: generated kernels in sync"

vet:
	$(GO) vet ./...

# loc prints the non-test, non-generated Go lines outside perfbench/, the
# code-size figure simplicity changes are measured by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -name '*_gen.go' ! -path './perfbench/*' | xargs cat | wc -l

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -cpu 1,2,4 $(RACE_PKGS)

# Go runs one fuzz target per invocation, so each gets its own line.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadMatrixMarket$$' -fuzztime $(FUZZTIME) ./internal/mat
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME) ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeVector$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzWireRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzShardPanelFrame$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzUpdateFrame$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzVBRPartition$$' -fuzztime $(FUZZTIME) ./internal/partition
	$(GO) test -run '^$$' -fuzz '^FuzzVBLRowBlocks$$' -fuzztime $(FUZZTIME) ./internal/partition
	$(GO) test -run '^$$' -fuzz '^FuzzSELLConstruction$$' -fuzztime $(FUZZTIME) ./internal/sell
	$(GO) test -run '^$$' -fuzz '^FuzzCountShapes$$' -fuzztime $(FUZZTIME) ./internal/blocks

bench:
	$(GO) test -bench 'MulVecWorkers|SolveCGWorkers' -benchmem \
	    ./internal/parallel ./internal/solver
	$(GO) test -run '^$$' -bench 'EnumerateStatsAll' -benchtime 3x ./internal/core

# bench-json regenerates the tracked machine-readable benchmark
# artifacts: BENCH_compress.json (index-compression experiment: bytes/nnz,
# measured and MEM-predicted speedup per format), BENCH_vbr.json
# (cost-model-driven variable-block partitioning: DP-aggregated VBR/VBL
# vs run-detection blocks vs CSR on the shared-sparsity archetypes),
# BENCH_spmm.json (multi-RHS panel multiply vs independent SpMVs per
# panel width, with the MEM-with-k predicted speedup), BENCH_sell.json
# (SELL-C-σ sweep vs scalar CSR on the scatter archetypes: padding
# ratio, MEM band, selection outcomes; the spmvbench run itself exits
# non-zero if the experiment's selection assertions fail),
# BENCH_serve.json (spmvd request coalescing: closed-loop
# throughput/latency batched vs unbatched) and BENCH_shard.json (the
# row-shard coordinator swept over shard counts behind chaos proxies:
# throughput that survives wire faults, retry counts, fan-out cost vs
# one shard, and per shard count the coordinator's gather-window
# batcher coalescing callers into multi-RHS panels vs per-call
# scatter, with the mean panel width), and BENCH_overlay.json (mutable
# matrices: read throughput before/during/after update churn through
# background recompaction, with the post-recompaction recovery ratio
# against the construct-once baseline).
bench-json:
	$(GO) run ./cmd/spmvbench -experiment compress -scale small \
	    -iterations 20 -json BENCH_compress.json
	$(GO) run ./cmd/spmvbench -experiment vbr -scale small \
	    -iterations 20 -json BENCH_vbr.json
	$(GO) run ./cmd/spmvbench -experiment sell -scale small \
	    -iterations 20 -json BENCH_sell.json
	$(GO) run ./cmd/spmvbench -experiment spmm -scale small \
	    -iterations 20 -cores 1,2,4 -rhs 1,2,4,8 -json BENCH_spmm.json
	$(GO) run ./cmd/spmvload -clients 8 -duration 2s -batch 8 \
	    -n 16384 -density 0.008 -workers 1 -window 3ms -detect=false \
	    -json BENCH_serve.json
	$(GO) run ./cmd/spmvload -shards 1,2,4 -chaos -clients 8 -duration 2s \
	    -n 8192 -density 0.008 -batch 8 -window 1ms -detect=false \
	    -json BENCH_shard.json
	$(GO) run ./cmd/spmvload -updates -clients 8 -duration 2s -batch 8 \
	    -n 8192 -density 0.008 -workers 1 -window 3ms -detect=false \
	    -update-batch 64 -recompact-after 512 -json BENCH_overlay.json
