# Build/test entry points for the Taste reproduction. The benchmark is
# bash bench/run.sh (BENCHMARK.json); scripts/pairs.sh runs it on a parent
# revision and on this tree in alternating pairs.

GO ?= go

# Packages whose concurrency the race detector must vet: the tensor
# runtime's borrowed-core sharding + arena, the sharded tiered cache with its
# singleflight groups, the pipelined scheduler, the fault-injecting simdb,
# the HTTP service, the lock-free metrics registry, the data-parallel
# training runtime with its gradient workers (plus the two model packages
# whose multi-worker training tests exercise it), the fleet coordinator with
# its health prober and admission queue, the shared retry core, and the
# deduplicated model registry whose page store backs concurrent
# publish/checkpoint traffic.
RACE_PKGS = ./internal/tensor/... ./internal/nn/... ./internal/train/... ./internal/adtd/... ./internal/sherlock/... ./internal/baselines/... ./internal/cache/... ./internal/pipeline/... ./internal/simdb/... ./internal/service/... ./internal/obs/... ./internal/fleet/... ./internal/retry/... ./internal/registry/...

.PHONY: build vet vet-arm64 test race race-all bench-check fuzz ci bench-smoke metrics-smoke fleet-smoke cache-smoke registry-smoke clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-arm64 type-checks the packages that sit on the assembly kernels for a
# platform that has none, so a symbol defined only in *_amd64.go (or used
# only by a test) cannot break the pure-Go fallback unnoticed.
vet-arm64:
	GOARCH=arm64 $(GO) vet ./internal/tensor/... ./internal/nn/... ./internal/adtd/...

test: build
	$(GO) test ./...

# race also runs internal/core's prefetcher, gate, per-table-forward,
# latent-key and over-a-connection tests: they drive core's concurrent code
# (prefetch.go, jobs parked on storage futures and cancelled there, s4
# forwards on every worker at once, two tenants sharing one detector's cache
# tiers, a pipelined batch on a connection its caller keeps) on an untrained
# model, so they need neither the trained fixture nor race-all's 45 minutes.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run 'Prefetch|Forward|LatentKey|DetectDatabaseOn' ./internal/core/

# bench-check builds and smoke-tests the benchmark module against this
# checkout. bench/ is a module of its own (replace repro => ..), so the root
# build and tests never compile it: an internal API change that breaks it
# would otherwise surface only when the benchmark pipeline runs.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fuzz gives each fuzzer a short budget beyond its seed corpus: the
# /v1/detect handler, the cache-key framing against its streaming reference,
# the tokenizer's append path against Encode, the four row kernels (the
# matmul's with its K-block edges), the fused add-and-LayerNorm and the
# attention core (with its span validation) against their references, and
# the checkpoint decoder (go test takes one -fuzz target per run).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzHandleDetect -fuzztime=20s ./internal/service/
	$(GO) test -run=^$$ -fuzz=^FuzzResultKeyFraming$$ -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=^FuzzEncodeAppend$$ -fuzztime=10s ./internal/tokenizer/
	for f in FuzzExpRow FuzzGELURow FuzzMulRowRange FuzzScoreRow FuzzLayerNormRows FuzzAttnCore FuzzReadTensors; do \
		$(GO) test -run=^$$ -fuzz=^$$f$$ -fuzztime=10s ./internal/tensor/ || exit 1; \
	done

# metrics-smoke boots tasted with -debug-addr, fires a traced detect, and
# asserts /metrics and /debug/pprof serve what DESIGN.md §9 promises.
metrics-smoke:
	bash scripts/metrics_smoke.sh

# fleet-smoke boots two tasted replicas behind a tastefleet coordinator,
# routes a detect, scrapes the aggregated /metrics, then kills a replica
# and asserts failover (DESIGN.md §12).
fleet-smoke:
	bash scripts/fleet_smoke.sh

# cache-smoke boots tasted with both cache tiers on, repeats a detect, and
# asserts the warm response is byte-identical to the cold one while the
# warm-hit counters on /metrics move (DESIGN.md §14).
cache-smoke:
	bash scripts/cache_smoke.sh

# registry-smoke runs the train → publish → serve → feedback → republish →
# hot-swap loop against real binaries and asserts the fine-tuned publish
# dedups against the base version (DESIGN.md §15).
registry-smoke:
	bash scripts/registry_smoke.sh

# ci is the gate a pull request must pass: vet, build, the full test suite,
# the race detector over every concurrent package, the benchmark module's
# build and smoke test, the serving smoke tests, and last the goldens, the
# answer-bit pin and the kernel bit tests again in a process without FMA
# (math.Exp takes its other branch there; Exp runs on software FMA and must
# not move).
ci: vet vet-arm64 test race bench-check metrics-smoke fleet-smoke cache-smoke registry-smoke
	GODEBUG=cpu.fma=off $(GO) test -count=1 . ./internal/tensor/

# race-all adds internal/core, whose fixture trains a model and needs a
# far longer deadline under the race detector's ~10x slowdown.
race-all:
	$(GO) test -race -timeout 45m $(RACE_PKGS) ./internal/core/...

# bench-smoke compiles and runs every package micro-benchmark exactly once —
# no timing value, but it keeps the benchmark code from rotting between full
# runs; that includes BenchmarkPaperScaleForward, the paper-scale model's
# forwards at random init (~1 s). (The paper's experiments run through
# cmd/tastebench, the end-to-end benchmark through bench/run.sh.)
# The second pass repeats the kernel sets (the AVX-512 kernels, the AVX2
# assembly and the Go kernels — matmul, the fused add-and-LayerNorm,
# attention at scan_cpu's shapes, the score, exp and GELU rows:
# sub-benchmarks avx512/asm/generic) so they are exercised by name even where
# the default run skips them.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) test -run='^$$' -bench='BenchmarkLinearInto$$|BenchmarkFusedAddLayerNorm$$|BenchmarkFusedAttentionCore$$|BenchmarkExpSubRow$$|BenchmarkGELURow$$|BenchmarkScoreRow$$' -benchtime=1x ./internal/tensor/

clean:
	$(GO) clean ./...
