#!/bin/sh
# Runs the benchmark suites and emits JSON summaries (ns/op, B/op,
# allocs/op per benchmark). Stdlib tooling only.
#
#   scripts/bench.sh [COMPUTE_OUT] [TRAIN_OUT] [FLEET_OUT] [CACHE_OUT]
#
# $1 (default BENCH_1.json) receives the compute-runtime set: matmul
# kernels, attention forward, batched Phase-2 inference, end-to-end
# detection. $2 (default BENCH_5.json) receives the training-runtime set:
# the sharded Adam step and one fine-tuning epoch, each serial (par1)
# versus four-way parallel (par4).
#
# Parallel-sensitive suites run across a GOMAXPROCS matrix (1/2/4, values
# above the CPU count skipped and recorded in the header), and every
# benchmark entry is tagged with the gomaxprocs it ran under. A parN-vs-par1
# ratio is emitted as a "parallel_speedups" entry ONLY when cpus > 1 and the
# run's gomaxprocs > 1; on a single-CPU machine the workers time-slice one
# core, so the ratio measures coordination overhead, not speedup, and the
# summary says so instead ("parallel_speedups_suppressed"). That rule exists
# because BENCH_1's par4 shards running no faster than par1 once looked like
# a kernel regression but was simply a 1-CPU container.
#
# $3 (default BENCH_7.json) receives the fleet-serving set: the seeded load
# generator (open- and closed-loop) driving an in-process 3-replica fleet
# through the coordinator, reporting p50/p95/p99 latency, throughput, shed
# rate, and the per-replica hit distribution — plus a deliberately
# admission-capped run so the recorded shed rate is non-zero. Set
# FLEET_ONLY=1 to run just this suite (it trains a model, so it dominates
# a full run's wall-clock).
#
# $4 (default BENCH_8.json) receives the tiered-cache set: tastebench
# -benchcache measures cold vs warm single-table detect latency on one
# trained model (warm answers byte-compared against cold), reporting the
# result-cache speedup at p50, plus one Zipf-skewed closed-loop fleet run
# whose hot keys concentrate on a few route keys — the workload where the
# per-replica caches earn their budget. Set CACHE_ONLY=1 to run just this
# suite.
set -eu

COMPUTE_OUT="${1:-BENCH_1.json}"
TRAIN_OUT="${2:-BENCH_5.json}"
FLEET_OUT="${3:-BENCH_7.json}"
CACHE_OUT="${4:-BENCH_8.json}"
cd "$(dirname "$0")/.."

NCPU="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
GITSHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

# GOMAXPROCS matrix: 1/2/4, dropping values the machine cannot provide.
MATRIX=""
SKIPPED=""
for gp in 1 2 4; do
    if [ "$gp" -le "$NCPU" ]; then
        MATRIX="$MATRIX $gp"
    else
        SKIPPED="$SKIPPED $gp"
    fi
done
MATRIX="${MATRIX# }"
SKIPPED="${SKIPPED# }"
# Highest matrix value: the "ambient" setting for non-parallel suites.
TOPGP="${MATRIX##* }"

echo "bench: cpus=$NCPU gomaxprocs matrix=[$MATRIX] skipped=[$SKIPPED]" >&2

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

run() { # run <gomaxprocs> <package> <benchmark regex> [benchtime]
    gp="$1"; pkg="$2"; pat="$3"; bt="${4:-1s}"
    echo "bench: GOMAXPROCS=$gp $pkg -bench $pat" >&2
    echo "@gomaxprocs $gp" >>"$TMP"
    GOMAXPROCS="$gp" go test -run '^$' -bench "$pat" -benchmem -benchtime "$bt" "$pkg" >>"$TMP" 2>&1 || {
        echo "bench: FAILED in $pkg" >&2
        tail -5 "$TMP" >&2
        exit 1
    }
}

emit() { # emit <outfile>: summarize $TMP as JSON, then reset it
    awk -v host="$(go env GOOS)/$(go env GOARCH)" \
        -v goversion="$(go env GOVERSION)" \
        -v matrix="$MATRIX" -v skipped="$SKIPPED" \
        -v ncpu="$NCPU" -v sha="$GITSHA" '
BEGIN { n = 0; gp = 0 }
/^@gomaxprocs / { gp = $2; next }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    line = sprintf("    {\"name\": \"%s\", \"gomaxprocs\": %d, \"ns_per_op\": %s", name, gp, ns)
    if (bytes != "")  line = line sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
    line = line "}"
    results[n] = line
    names[n] = name; gps[n] = gp
    nsv[name "|" gp] = ns
    n++
}
function jsonlist(s,  parts, k, out, i) {
    k = split(s, parts, " ")
    out = "["
    for (i = 1; i <= k; i++) out = out (i > 1 ? ", " : "") parts[i]
    return out "]"
}
END {
    printf "{\n  \"platform\": \"%s\",\n", host
    printf "  \"go_version\": \"%s\",\n", goversion
    printf "  \"cpus\": %s,\n", ncpu
    printf "  \"gomaxprocs_matrix\": %s,\n", jsonlist(matrix)
    printf "  \"gomaxprocs_skipped\": %s,\n", jsonlist(skipped)
    if (skipped != "")
        printf "  \"matrix_note\": \"gomaxprocs values [%s] exceed the %s available CPU(s) and were skipped\",\n", skipped, ncpu
    printf "  \"git_sha\": \"%s\",\n", sha
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) printf "%s%s\n", results[i], (i < n-1 ? "," : "")
    printf "  ]"
    # parN-vs-par1 ratios: a "speedup" label is only honest when more than
    # one CPU existed AND the run granted more than one P; otherwise the
    # workers time-sliced a single core and the ratio is coordination
    # overhead, so the label is refused and the reason recorded instead.
    m = 0; sawpar = 0
    for (i = 0; i < n; i++) {
        name = names[i]
        if (match(name, /\/par[0-9]+$/)) {
            w = substr(name, RSTART + 4, RLENGTH - 4) + 0
            if (w <= 1) continue
            sawpar = 1
            if (ncpu <= 1 || gps[i] <= 1) continue
            base = substr(name, 1, RSTART - 1) "/par1"
            key = base "|" gps[i]
            if (!(key in nsv)) continue
            sp[m] = sprintf("    {\"name\": \"%s\", \"workers\": %d, \"gomaxprocs\": %d, \"speedup_vs_par1\": %.2f}",
                            name, w, gps[i], nsv[key] / nsv[name "|" gps[i]])
            m++
        }
    }
    if (m > 0) {
        printf ",\n  \"parallel_speedups\": [\n"
        for (i = 0; i < m; i++) printf "%s%s\n", sp[i], (i < m-1 ? "," : "")
        printf "  ]"
    } else if (sawpar) {
        printf ",\n  \"parallel_speedups_suppressed\": \"cpus == %s: parN workers time-slice the available core(s); a parN/par1 ratio here measures coordination overhead, not parallel speedup\"", ncpu
    }
    printf "\n}\n"
}' "$TMP" >"$1"
    echo "bench: wrote $1 ($(grep -c '"name"' "$1") entries)" >&2
    : >"$TMP"
}

if [ "${FLEET_ONLY:-0}" != "1" ] && [ "${CACHE_ONLY:-0}" != "1" ]; then

# Compute-runtime set → $COMPUTE_OUT (ambient GOMAXPROCS = top of matrix).
run "$TOPGP" ./internal/tensor 'BenchmarkMatMul$|BenchmarkMatMul64$|BenchmarkMatMulNTScores$|BenchmarkTrainStepRelease' 1s
run "$TOPGP" ./internal/nn 'BenchmarkSelfAttention128$|BenchmarkTransformerBlock$' 1s
run "$TOPGP" ./internal/adtd 'BenchmarkP2InferenceBatched$|BenchmarkP2InferenceCachedLatents$' 1s
run "$TOPGP" ./internal/pipeline 'BenchmarkSequentialExecution$|BenchmarkPipelinedExecution$' 1s
run "$TOPGP" ./internal/core 'BenchmarkDetectDatabase' 3x
emit "$COMPUTE_OUT"

# Training-runtime set → $TRAIN_OUT: the par1/par4 pairs run at every
# matrix point so parallel claims are tied to a recorded machine shape.
for gp in $MATRIX; do
    run "$gp" ./internal/tensor 'BenchmarkAdamStep$' 1s
    run "$gp" ./internal/adtd 'BenchmarkFineTuneEpoch$' 2x
done
emit "$TRAIN_OUT"

fi # FLEET_ONLY / CACHE_ONLY

if [ "${CACHE_ONLY:-0}" != "1" ]; then

# Fleet-serving set → $FLEET_OUT. Each tastebench -loadgen invocation boots
# an in-process 3-replica fleet behind the coordinator, drives it with a
# seeded workload (the request sequence is a pure function of the seed),
# and prints one JSON record; this assembles them under the standard
# header. Three shapes per matrix point: open-loop (Poisson arrivals —
# shedding shows up honestly), closed-loop (saturating workers), and a
# capacity-capped closed-loop run that provokes 429s so the shed-rate path
# stays exercised end to end.
TBENCH="$(mktemp -d)/tastebench"
go build -o "$TBENCH" ./cmd/tastebench
fleet_run() { # fleet_run <gomaxprocs> <extra flags...>
    gp="$1"; shift
    echo "bench: GOMAXPROCS=$gp tastebench -loadgen $*" >&2
    GOMAXPROCS="$gp" "$TBENCH" -loadgen -fleet-replicas 3 -fleet-tables 40 \
        -fleet-tenants 8 -loadgen-seed 7 "$@" >>"$TMP" || {
        echo "bench: fleet loadgen FAILED" >&2
        exit 1
    }
}
for gp in $MATRIX; do
    fleet_run "$gp" -loadgen-mode open -rate 40 -requests 120
    fleet_run "$gp" -loadgen-mode closed -concurrency 8 -requests 120
    fleet_run "$gp" -loadgen-mode closed -concurrency 12 -requests 120 -max-inflight 1 -queue-depth 0
done
rm -f "$TBENCH"
{
    printf '{\n  "platform": "%s/%s",\n' "$(go env GOOS)" "$(go env GOARCH)"
    printf '  "go_version": "%s",\n' "$(go env GOVERSION)"
    printf '  "cpus": %s,\n' "$NCPU"
    printf '  "gomaxprocs_matrix": [%s],\n' "$(echo "$MATRIX" | tr ' ' ',')"
    printf '  "gomaxprocs_skipped": [%s],\n' "$(echo "$SKIPPED" | tr ' ' ',')"
    if [ -n "$SKIPPED" ]; then
        printf '  "matrix_note": "gomaxprocs values [%s] exceed the %s available CPU(s) and were skipped",\n' "$SKIPPED" "$NCPU"
    fi
    printf '  "git_sha": "%s",\n' "$GITSHA"
    printf '  "load_runs": [\n'
    awk '{ lines[NR] = $0 } END { for (i = 1; i <= NR; i++) printf "    %s%s\n", lines[i], (i < NR ? "," : "") }' "$TMP"
    printf '  ]\n}\n'
} >"$FLEET_OUT"
echo "bench: wrote $FLEET_OUT ($(grep -c '"name"' "$FLEET_OUT") entries)" >&2
: >"$TMP"

fi # CACHE_ONLY

if [ "${FLEET_ONLY:-0}" != "1" ]; then

# Tiered-cache set → $CACHE_OUT. tastebench -benchcache trains one model
# and measures the three cache temperatures (cold, warm latent, warm
# result) over single-table detects, failing the run outright on any warm
# response that differs from its cold counterpart. The Zipf load run then
# exercises the same tiers through the full coordinator path with a
# realistically skewed key distribution. Runs at the top of the matrix
# only: the quantity under test is the hit-path speedup ratio, which is
# machine-shape invariant (both sides of the ratio share the GOMAXPROCS).
TBENCH="$(mktemp -d)/tastebench"
go build -o "$TBENCH" ./cmd/tastebench
echo "bench: GOMAXPROCS=$TOPGP tastebench -benchcache" >&2
GOMAXPROCS="$TOPGP" "$TBENCH" -benchcache -fleet-tables 40 -loadgen-seed 7 \
    -requests 120 >>"$TMP" || {
    echo "bench: benchcache FAILED" >&2
    exit 1
}
echo "bench: GOMAXPROCS=$TOPGP tastebench -loadgen -loadgen-dist zipf" >&2
GOMAXPROCS="$TOPGP" "$TBENCH" -loadgen -fleet-replicas 3 -fleet-tables 40 \
    -fleet-tenants 8 -loadgen-seed 7 -loadgen-mode closed -concurrency 8 \
    -requests 120 -loadgen-dist zipf -zipf-s 1.2 >>"$TMP" || {
    echo "bench: zipf loadgen FAILED" >&2
    exit 1
}
rm -f "$TBENCH"
{
    printf '{\n  "platform": "%s/%s",\n' "$(go env GOOS)" "$(go env GOARCH)"
    printf '  "go_version": "%s",\n' "$(go env GOVERSION)"
    printf '  "cpus": %s,\n' "$NCPU"
    printf '  "gomaxprocs": %s,\n' "$TOPGP"
    printf '  "git_sha": "%s",\n' "$GITSHA"
    printf '  "cache_runs": [\n'
    awk '{ lines[NR] = $0 } END { for (i = 1; i <= NR; i++) printf "    %s%s\n", lines[i], (i < NR ? "," : "") }' "$TMP"
    printf '  ]\n}\n'
} >"$CACHE_OUT"
echo "bench: wrote $CACHE_OUT ($(grep -c '"name"' "$CACHE_OUT") entries)" >&2
: >"$TMP"

fi # FLEET_ONLY
