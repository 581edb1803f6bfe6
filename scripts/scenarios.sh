#!/usr/bin/env bash
# Scenario coverage run: builds every program this repository ships with
# -cover (./cmd/..., ./examples/... and the bench/ module, whose build
# instruments repro/... through -coverpkg), runs one fixed list of
# scenarios with GOCOVERDIR set, and writes the merged per-function table
# (`go tool covdata func`) to the file named by its one argument:
#
#   - the four examples;
#   - tastegen three ways: statistics, a GitTables JSONL dump, the types;
#   - tastetrain three ways: Taste with MLM pre-training on two workers,
#     Doduo on two workers, TURL;
#   - tastebench -quick -experiment all with a checkpoint directory, which
#     must print the ablations' latent-cache line and two F1 rows under
#     each loss-comparison block, then fig4 again, which must reload a
#     Taste and a baseline checkpoint from that directory;
#   - the five smoke scripts (metrics, fleet, cache, registry, fault),
#     which build their own binaries under GOFLAGS=-cover;
#   - each bench/ workload for 2 s, untraced and traced, each run reporting
#     "correct":true and "failed":0.
#
# Nothing is written into the checkout: binaries, counters, checkpoints and
# every program's working directory live in one temporary directory. The
# root test TestEveryFunctionRuns (make scenarios) runs this script and
# judges the table. Run from anywhere:
#
#	bash scripts/scenarios.sh /tmp/func.txt
set -euo pipefail

[[ $# -eq 1 ]] || { echo "usage: $0 FUNC_TABLE" >&2; exit 2; }
OUT=$(realpath -m "$1")
ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$ROOT"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
BIN="$TMP/bin"
WORK="$TMP/work"
LOG="$TMP/scenario.log"
export GOCOVERDIR="$TMP/cov"
mkdir -p "$BIN" "$WORK" "$GOCOVERDIR"

# run NAME CMD...: run one scenario from the work directory with its output
# in LOG, which a failure prints. The output stays in LOG for checks.
run() {
    local name=$1 start=$SECONDS
    shift
    if ! (cd "$WORK" && "$@") >"$LOG" 2>&1; then
        cat "$LOG" >&2
        echo "scenario $name failed" >&2
        exit 1
    fi
    echo "scenario $name: $((SECONDS - start)) s" >&2
}
# expect WHAT PATTERN [COUNT]: the last scenario's output has a line
# matching PATTERN (COUNT lines, when given).
expect() {
    local n
    n=$(grep -c -- "$2" "$LOG" || true)
    if [[ -n "${3:-}" && "$n" -ne "$3" ]] || [[ "$n" -eq 0 ]]; then
        cat "$LOG" >&2
        echo "$1: want ${3:-some} lines matching $2, got $n" >&2
        exit 1
    fi
}

go build -cover -o "$BIN/" ./cmd/... ./examples/...
(cd bench && go build -cover -coverpkg=repro/... -o "$BIN/bench" .)

for ex in quickstart piiscan pipelined fleet; do
    run "example $ex" "$BIN/$ex"
done

run "tastegen stats" "$BIN/tastegen" -tables 40
run "tastegen dump" "$BIN/tastegen" -dataset gittables -tables 40 -stats=false -dump
run "tastegen types" "$BIN/tastegen" -types
run "tastetrain taste" "$BIN/tastetrain" -model taste -tables 24 -epochs 1 -pretrain 20 -train-workers 2 -o "$TMP/taste.ckpt"
run "tastetrain doduo" "$BIN/tastetrain" -model doduo -tables 24 -epochs 1 -train-workers 2 -o "$TMP/doduo.ckpt"
run "tastetrain turl" "$BIN/tastetrain" -model turl -tables 24 -epochs 1 -o "$TMP/turl.ckpt"

run "tastebench all" "$BIN/tastebench" -quick -experiment all -checkpoints "$TMP/ckpt" -v=false
expect "ablations" '^Latent cache: with=.* without='
for block in 'Multi-task loss:' 'Content-tower attention:'; do
    [[ "$(grep -A2 -x "$block" "$LOG" | grep -c 'F1=')" -eq 2 ]] \
        || { cat "$LOG" >&2; echo "ablations: want two F1 rows under $block" >&2; exit 1; }
done
run "tastebench fig4 reload" "$BIN/tastebench" -quick -experiment fig4 -checkpoints "$TMP/ckpt"
expect "fig4 reload" 'loaded checkpoint .*/taste-'
expect "fig4 reload" 'loaded checkpoint .*/TURL-'

for s in metrics fleet cache registry fault; do
    run "${s}_smoke.sh" env -C "$ROOT" GOFLAGS=-cover bash "scripts/${s}_smoke.sh"
done

for w in scan_cpu scan_io serve_hot serve_miss; do
    for trace in 0 1; do
        run "bench $w trace $trace" "$BIN/bench" --workload "$w" --seed 1 --seconds 2 --trace "$trace"
        expect "$w" '"correct":true' 1
        expect "$w" '"failed":0[,}]' 1
    done
done

go tool covdata func -i="$GOCOVERDIR" >"$OUT"
