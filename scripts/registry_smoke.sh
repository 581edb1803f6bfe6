#!/usr/bin/env bash
# Model-registry smoke test: the full train → publish → serve → publish
# from another process → swap loop against real binaries (DESIGN.md §15).
#
#  1. tastetrain -publish stores the trained checkpoint as version 1: the
#     directory holds one file, 1.ckpt, readable by every user (mode 0644).
#  2. tasted -registry boots serving version 1 straight from the registry.
#  3. While it serves, a second tastetrain run (-epochs 2) publishes
#     version 2 into the same directory. The server lists it at once, POST
#     /v1/models/swap {"version":0} serves it, and the answer is the bytes
#     of a -checkpoint boot of that run's -o file (step 6).
#  4. POST /v1/models/publish fired repeatedly while a third tastetrain run
#     publishes: every publish answers 200, no two share a version, the
#     listing is 1..N with nothing missing, and the directory holds only
#     version files, each mode 0644, no temporary one.
#  5. Hot-swaps between versions 1 and 2 run under concurrent detect load:
#     every response must be a 200 labeled with a version in {1,2}.
#  6. tasted boots from the two tastetrain -o files and with -registry
#     -model-version 1; each answers with the bytes the registry served for
#     its version (a checkpoint boot carries no model_version). The first
#     checkpoint boot sets -deadline 1ns: a detect naming every demo table
#     answers 200, degraded, each table skipped, and one that sends
#     "deadline_ms":600000 overrides the default and answers version 1's
#     bytes.
#
# Run from the repo root (CI does).
set -euo pipefail

ADDR=127.0.0.1:18100
TMP=$(mktemp -d)
REG="$TMP/registry"
LOG="$TMP/tasted.log"
TRAIN="$TMP/tastetrain"
SERVE="$TMP/tasted"

cleanup() {
    [[ -n "${PID:-}" ]] && kill "$PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

# boot ARGS...: start tasted on ADDR with the given model flags and wait
# for it to answer.
boot() {
    "$SERVE" "$@" -tables 24 -seed 1 -addr "$ADDR" >"$LOG" 2>&1 &
    PID=$!
    for i in $(seq 1 120); do
        curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && return 0
        if ! kill -0 "$PID" 2>/dev/null; then
            echo "tasted $* exited before becoming healthy:" >&2
            cat "$LOG" >&2
            exit 1
        fi
        sleep 1
    done
    echo "tasted $* never became healthy" >&2
    cat "$LOG" >&2
    exit 1
}
stop() { kill "$PID"; wait "$PID" 2>/dev/null || true; PID=; }
canon() { sed 's/"duration_ms":[0-9]*//'; }

# jq-free JSON field extraction: first occurrence of a numeric field
# (empty when the field is absent, e.g. omitempty zeros).
jnum() { grep -o "\"$1\":[0-9.]*" | head -1 | cut -d: -f2 || true; }

go build -o "$TRAIN" ./cmd/tastetrain
go build -o "$SERVE" ./cmd/tasted

# only_versions: the registry directory holds version files and nothing
# else: no temporary file of a publish. Every version is mode 0644, so a
# server running as another user than the publisher can read it.
only_versions() {
    local stray unreadable
    stray=$(ls -A "$REG" | grep -vxE '[1-9][0-9]*\.ckpt' || true)
    [[ -z "$stray" ]] || { echo "registry directory holds more than version files: $stray" >&2; ls -la "$REG" >&2; exit 1; }
    unreadable=$(cd "$REG" && stat -c '%a %n' -- * | grep -v '^644 ' || true)
    [[ -z "$unreadable" ]] || { echo "registry versions not mode 0644: $unreadable" >&2; exit 1; }
}

# 1. Train a tiny model and publish it as version 1.
"$TRAIN" -model taste -tables 24 -seed 1 -epochs 1 -o "$TMP/taste.ckpt" -publish "$REG"
[[ "$(ls -A "$REG")" == 1.ckpt ]] \
    || { echo "registry directory does not hold just 1.ckpt:" >&2; ls -la "$REG" >&2; exit 1; }
only_versions

# 2. Serve straight from the registry (corpus knobs must match training).
boot -registry "$REG"

MODELS=$(curl -sf "http://$ADDR/v1/models")
grep -qF '"versions":[1]' <<<"$MODELS" || { echo "registry listing is not version 1: $MODELS" >&2; exit 1; }

DETECT=$(curl -sf -XPOST "http://$ADDR/v1/detect" -d '{"database":"demo"}')
V=$(jnum model_version <<<"$DETECT")
[[ "$V" == 1 ]] || { echo "detect served model_version=$V, want 1" >&2; exit 1; }
V1=$(canon <<<"$DETECT")

# 3. Another process publishes version 2 while tasted serves; swapping to
# the latest serves it.
OUT=$("$TRAIN" -model taste -tables 24 -seed 1 -epochs 2 -o "$TMP/taste2.ckpt" -publish "$REG")
grep -qF "published version 2 → $REG" <<<"$OUT" || { echo "second tastetrain did not publish version 2: $OUT" >&2; exit 1; }
MODELS=$(curl -sf "http://$ADDR/v1/models")
grep -qF '"versions":[1,2]' <<<"$MODELS" || { echo "the server does not list tastetrain's version 2: $MODELS" >&2; exit 1; }
SWAP=$(curl -sf -XPOST "http://$ADDR/v1/models/swap" -d '{"version":0}')
[[ "$(jnum version <<<"$SWAP")" == 2 ]] || { echo "swap to latest did not serve version 2: $SWAP" >&2; exit 1; }
DETECT=$(curl -sf -XPOST "http://$ADDR/v1/detect" -d '{"database":"demo"}')
[[ "$(jnum model_version <<<"$DETECT")" == 2 ]] || { echo "detect after swap to latest: $DETECT" >&2; exit 1; }
V2=$(canon <<<"$DETECT")
[[ "$V2" != "$V1" ]] || { echo "versions 1 and 2 answer alike; the byte checks would be vacuous" >&2; exit 1; }

# 4. tasted publishes, over and over, while a tastetrain run publishes into
# the same directory.
"$TRAIN" -model taste -tables 24 -seed 1 -epochs 1 -train-workers 2 -o "$TMP/taste3.ckpt" -publish "$REG" >"$TMP/train3.out" &
TRAINPID=$!
PUBS=0
while kill -0 "$TRAINPID" 2>/dev/null || [[ "$PUBS" -lt 2 ]]; do
    [[ "$PUBS" -lt 30 ]] || break
    curl -s -o "$TMP/pub_$PUBS" -w '%{http_code}' -XPOST "http://$ADDR/v1/models/publish" -d '{}' >"$TMP/code_$PUBS"
    [[ "$(cat "$TMP/code_$PUBS")" == 200 ]] || { echo "publish $PUBS: status $(cat "$TMP/code_$PUBS"): $(cat "$TMP/pub_$PUBS")" >&2; exit 1; }
    PUBS=$((PUBS + 1))
done
wait "$TRAINPID"
TV=$(grep -o 'published version [0-9]*' "$TMP/train3.out" | cut -d' ' -f3)
CLAIMED=$( { echo "$TV"; for ((i = 0; i < PUBS; i++)); do jnum version <"$TMP/pub_$i"; done; } | sort -n)
N=$((PUBS + 3))
[[ "$CLAIMED" == "$(seq 3 "$N")" ]] \
    || { echo "tastetrain (version '$TV') and $PUBS tasted publishes claimed: $(echo $CLAIMED), want 3..$N" >&2; exit 1; }
MODELS=$(curl -sf "http://$ADDR/v1/models")
grep -qF "\"versions\":[$(seq -s, 1 "$N")]" <<<"$MODELS" || { echo "listing after the concurrent publishes: $MODELS" >&2; exit 1; }
only_versions

# 5. Hot-swap between the versions under concurrent detect load.
LOADLOG="$TMP/load.log"
( for i in $(seq 1 20); do
      curl -s -o /dev/null -w '%{http_code} ' -XPOST "http://$ADDR/v1/detect" -d '{"database":"demo"}'
  done > "$LOADLOG" ) &
LOADPID=$!
for v in 1 2; do
    SWAP=$(curl -sf -XPOST "http://$ADDR/v1/models/swap" -d "{\"version\":$v}")
    [[ "$(jnum version <<<"$SWAP")" == "$v" ]] || { echo "swap to $v failed: $SWAP" >&2; exit 1; }
done
wait "$LOADPID"
CODES=$(cat "$LOADLOG")
[[ "$CODES" =~ ^(200\ )+$ ]] || { echo "detects under swap load returned: $CODES" >&2; exit 1; }

STATS=$(curl -sf "http://$ADDR/v1/stats")
MODELBLOCK=$(grep -o '"model":{[^}]*' <<<"$STATS")
[[ "$(jnum version <<<"$MODELBLOCK")" == 2 ]] || { echo "final serving version != 2: $MODELBLOCK" >&2; exit 1; }
[[ "$(jnum swaps <<<"$MODELBLOCK")" == 3 ]] || { echo "swap count != 3: $MODELBLOCK" >&2; exit 1; }
DETECT=$(curl -sf -XPOST "http://$ADDR/v1/detect" -d '{"database":"demo"}')
[[ "$(jnum model_version <<<"$DETECT")" == 2 ]] || { echo "post-swap detect not on version 2" >&2; exit 1; }

# 6. The other ways to boot a trained model serve the registry's bytes.
stop
boot -checkpoint "$TMP/taste.ckpt" -deadline 1ns
NAMES=$(grep -o '"table":"[^"]*"' <<<"$V1" | cut -d'"' -f4)
LIST=$(sed 's/.*/"&"/' <<<"$NAMES" | paste -sd,)
OUT=$(curl -s -w '\n%{http_code}' -XPOST "http://$ADDR/v1/detect" -d "{\"database\":\"demo\",\"tables\":[$LIST]}")
CODE=${OUT##*$'\n'}; OUT=${OUT%$'\n'*}
[[ "$CODE" == 200 ]] && grep -qF '"degraded":true' <<<"$OUT" \
    || { echo "detect under -deadline 1ns: status $CODE, want 200 and degraded: $OUT" >&2; exit 1; }
while read -r t; do
    grep -qF "\"table\":\"$t\",\"columns\":[],\"skipped\":true" <<<"$OUT" \
        || { echo "detect under -deadline 1ns did not skip $t: $OUT" >&2; exit 1; }
done <<<"$NAMES"
GOT=$(curl -sf -XPOST "http://$ADDR/v1/detect" -d '{"database":"demo","deadline_ms":600000}' | canon)
[[ "$GOT" == "${V1/,\"model_version\":1/}" ]] \
    || { echo "the -checkpoint boot answers differently from version 1:" >&2; diff <(echo "$V1") <(echo "$GOT") >&2; exit 1; }
stop
boot -checkpoint "$TMP/taste2.ckpt"
GOT=$(curl -sf -XPOST "http://$ADDR/v1/detect" -d '{"database":"demo"}' | canon)
[[ "$GOT" == "${V2/,\"model_version\":2/}" ]] \
    || { echo "the -checkpoint boot of tastetrain's second model answers differently from version 2:" >&2; diff <(echo "$V2") <(echo "$GOT") >&2; exit 1; }
stop
boot -registry "$REG" -model-version 1
GOT=$(curl -sf -XPOST "http://$ADDR/v1/detect" -d '{"database":"demo"}' | canon)
[[ "$GOT" == "$V1" ]] \
    || { echo "the -model-version 1 boot answers differently from version 1:" >&2; diff <(echo "$V1") <(echo "$GOT") >&2; exit 1; }

echo "registry smoke: OK (versions=$N, tastetrain published version $TV among $PUBS tasted publishes)"
