# Build/test entry points for the Taste reproduction. The benchmark is
# bash bench/run.sh (BENCHMARK.json); scripts/pairs.sh runs it on a parent
# revision and on this tree in alternating pairs.

GO ?= go

# Packages whose concurrency the race detector must vet: the tensor
# runtime's borrowed-core sharding + arena, the sharded tiered cache with its
# singleflight groups, the fault-injecting simdb,
# the HTTP service, the lock-free metrics registry, the data-parallel
# training runtime with its gradient workers (plus the two model packages
# whose multi-worker training tests exercise it), the fleet coordinator with
# its health prober and admission queue, the shared retry core, and the
# model registry, whose concurrent publishes from one registry value and
# from two on one directory must each take a distinct version while
# checkpoints and stats read the directory. The pipelined scheduler has a
# race line of its own (race, race-all).
RACE_PKGS = ./internal/tensor/... ./internal/nn/... ./internal/train/... ./internal/adtd/... ./internal/baselines/... ./internal/cache/... ./internal/simdb/... ./internal/service/... ./internal/obs/... ./internal/fleet/... ./internal/retry/... ./internal/registry/...

.PHONY: build vet vet-arm64 test scenarios race race-all bench-check fuzz ci bench-smoke metrics-smoke fleet-smoke cache-smoke registry-smoke fault-smoke clean

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

# scenarios builds every program this repository ships (./cmd/...,
# ./examples/... and the bench/ module) with -cover, runs the fixed scenario
# list of scripts/scenarios.sh (the examples, tastegen, tastetrain, the
# quick tastebench suite and a checkpoint reload, the five serving smoke
# scripts, each bench/ workload untraced and traced) and fails naming each
# function declared under internal/ that ran no statement and
# scenarios_test.go's allowlist does not hold with a reason. The scripts'
# own checks run with it: the ablations' latent-cache line and F1 rows,
# each workload's "correct":true and "failed":0. It writes nothing into the
# checkout and takes about four minutes on two cores. It needs the AVX2+FMA
# assembly kernels, so an amd64 host with both: on the Go kernels the list
# needs over an hour, and the test fails at once naming the kernels instead
# of running into the timeout. arm64 is untried.
scenarios:
	$(GO) test -v -tags scenarios -count=1 -timeout 30m -run TestEveryFunctionRuns .

# race also runs internal/core's read-stage, per-table-forward, latent-key,
# over-a-connection and stage-failure tests: they drive core's concurrent
# code (scans and ANALYZEs as read stages on goroutines of their own,
# cancelled mid-read, s4 forwards on every worker at once, two tenants
# sharing one detector's cache tiers, one table name holding two metadata
# versions between detects, a pipelined batch on a connection its caller
# keeps, a stage that panics or is abandoned by the deadline while other
# tables run on, a warm detector answering a table that changed in one
# cell) on an untrained model, so they need neither the trained fixture nor
# race-all's 45 minutes. The allocation ceiling of one result-tier hit runs
# there too, and so do detects that reuse the storage of released ones,
# pipelined batches among them, against answers on unused storage; a fake
# baseline classifier on the same stages in both modes; and SwapModel
# during pipelined detects, which must leave every model a request captured
# unchanged while every detect answers the reference bytes.
#
# The scheduler runs ten times over: its tests drive goroutine interleavings
# (token handoff order, a cancel while stages wait for a token, a panic
# mid-run) that one pass may not hit, and a rewrite of the stage loop is
# where an interleaving bug would hide. It takes seconds.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=10 ./internal/pipeline/
	$(GO) test -race -run 'HitsEveryRead|Forward|LatentKey|DetectDatabaseOn|StagePanic|DeadlineAfterScan|ResultTier|CachedDetectTableAllocs|BatchReuse|BaselineSeam|ModelWriters' ./internal/core/

# bench-check builds and smoke-tests the benchmark module against this
# checkout. bench/ is a module of its own (replace repro => ..), so the root
# build and tests never compile it: an internal API change that breaks it
# would otherwise surface only when the benchmark pipeline runs.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fuzz gives each fuzzer a short budget beyond its seed corpus: the
# /v1/detect handler, its hand-written request decoder and response encoder
# against encoding/json, its singleflight key (equal exactly when every
# field but trace is), the cache-key framing against its streaming reference,
# the scan's cut to each column's first n non-empty cells against the full
# scan,
# the tokenizer's append path against Encode, the four row kernels (the
# matmul's with its K-block edges), the fused add-and-LayerNorm and the
# attention core (with its span validation) against their references, the
# weights-stream decoder, the model-file reader (seeded with a written
# file, a bare weights stream, a header cut short and one claiming 2^31
# terms: it returns a model or an error, never panics), the registry's
# version-file reader (seeded with a
# published file, a flipped byte, a cut tail and no bytes: it returns an
# error or a stream followed by that stream's SHA-256), and the Prometheus
# text checker against the exposition writer (go test takes one -fuzz
# target per run).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzHandleDetect -fuzztime=20s ./internal/service/
	for f in FuzzDetectRequestDecode FuzzDetectResponseEncode FuzzFlightKey; do \
		$(GO) test -run=^$$ -fuzz=^$$f$$ -fuzztime=10s ./internal/service/ || exit 1; \
	done
	$(GO) test -run=^$$ -fuzz=^FuzzResultKeyFraming$$ -fuzztime=10s ./internal/core/
	$(GO) test -run=^$$ -fuzz=^FuzzScanCells$$ -fuzztime=10s ./internal/simdb/
	$(GO) test -run=^$$ -fuzz=^FuzzEncodeAppend$$ -fuzztime=10s ./internal/tokenizer/
	$(GO) test -run=^$$ -fuzz=^FuzzReadModel$$ -fuzztime=10s ./internal/adtd/
	for f in FuzzExpRow FuzzGELURow FuzzMulRowRange FuzzScoreRow FuzzLayerNormRows FuzzAttnCore FuzzReadTensors; do \
		$(GO) test -run=^$$ -fuzz=^$$f$$ -fuzztime=10s ./internal/tensor/ || exit 1; \
	done
	$(GO) test -run=^$$ -fuzz=^FuzzVersionFile$$ -fuzztime=10s ./internal/registry/
	$(GO) test -run=^$$ -fuzz=^FuzzCheckText$$ -fuzztime=10s ./internal/obs/

# metrics-smoke boots tasted with -debug-addr, fires a traced detect, and
# asserts /metrics and /debug/pprof serve what DESIGN.md §9 promises; then
# it sends the request shapes besides a plain detect (405, 400, 413, 404,
# an unknown table, a padded body, deadline_ms, a cut body, /v1/types).
# The five smoke scripts run inside make scenarios; these targets run one.
metrics-smoke:
	bash scripts/metrics_smoke.sh

# fleet-smoke boots two tasted replicas behind a tastefleet coordinator,
# routes a detect, scrapes the aggregated /metrics, then kills a replica
# and asserts failover, and a 503 through a replica that answers 503
# (DESIGN.md §12).
fleet-smoke:
	bash scripts/fleet_smoke.sh

# cache-smoke boots tasted with both cache tiers on, repeats a detect, and
# asserts the warm response is byte-identical to the cold one while the
# warm-hit counters on /metrics move; then again at budgets that must evict
# (DESIGN.md §14).
cache-smoke:
	bash scripts/cache_smoke.sh

# registry-smoke runs the train → publish → serve → hot-swap loop against
# real binaries: tastetrain publishes into the directory tasted serves, a
# swap to latest serves it with the bytes of a -checkpoint boot of the same
# model, tasted and tastetrain publishing at once claim distinct versions,
# and the directory holds only version files; a -checkpoint boot under
# -deadline 1ns skips every table and a -model-version 1 boot answers
# version 1's bytes (DESIGN.md §15).
registry-smoke:
	bash scripts/registry_smoke.sh

# fault-smoke boots tasted with -fault-prob 0.3 -fault-seed 1 beside a
# fault-free twin trained to the same bits, and asserts that every column
# of every detect is either marked degraded with a reason or equal to the
# twin's answer (DESIGN.md §7).
fault-smoke:
	bash scripts/fault_smoke.sh

# ci is the gate a pull request must pass: vet, build, the full test suite,
# the scenario run (every function under internal/ runs in a shipped
# scenario or is allowlisted with a reason; it includes the serving smoke
# tests, the quick ablations and a short correctness run of each bench/
# workload), the race detector over every concurrent package, the benchmark
# module's build and smoke test, and last the goldens, the answer-bit pin
# and the kernel bit tests again in a process without FMA (math.Exp takes
# its other branch there; Exp runs on software FMA and must not move).
ci: vet vet-arm64 test scenarios race bench-check
	GODEBUG=cpu.fma=off $(GO) test -count=1 . ./internal/tensor/

# race-all adds internal/core, whose fixture trains a model and needs a
# far longer deadline under the race detector's ~10x slowdown.
race-all:
	$(GO) test -race -timeout 45m $(RACE_PKGS) ./internal/pipeline/... ./internal/core/...

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
