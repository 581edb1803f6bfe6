#!/usr/bin/env bash
# Model-registry smoke test: the full train → publish → serve → republish →
# hot-swap loop against real binaries (DESIGN.md §15).
#
#  1. tastetrain -publish stores the trained checkpoint in a journaled
#     registry as version 1: the directory holds one file, versions.log.
#  2. tasted -registry boots serving version 1 straight from the registry.
#  3. POST /v1/models/publish stores the serving weights again as version
#     2, and the publish must dedup against version 1 completely: no new
#     page, so stored bytes < logical bytes across the two versions. Two
#     publishes fired at once must both answer 200 with distinct versions.
#  4. Hot-swaps between versions 1 and 2 run under concurrent detect load:
#     every response must be a 200 labeled with a version in {1,2}.
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

# jq-free JSON field extraction: first occurrence of a numeric field
# (empty when the field is absent, e.g. omitempty zeros).
jnum() { grep -o "\"$1\":[0-9.]*" | head -1 | cut -d: -f2 || true; }

go build -o "$TRAIN" ./cmd/tastetrain
go build -o "$SERVE" ./cmd/tasted

# 1. Train a tiny model and publish it as version 1.
"$TRAIN" -model taste -tables 24 -seed 1 -epochs 1 -o "$TMP/taste.ckpt" -publish "$REG"
[[ "$(ls "$REG")" == versions.log ]] \
    || { echo "registry directory does not hold just versions.log:" >&2; ls -la "$REG" >&2; exit 1; }

# 2. Serve straight from the registry (corpus knobs must match training).
"$SERVE" -registry "$REG" -tables 24 -seed 1 -addr "$ADDR" >"$LOG" 2>&1 &
PID=$!
for i in $(seq 1 120); do
    curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "tasted exited before becoming healthy:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 1
done
curl -sf "http://$ADDR/healthz" >/dev/null || { echo "tasted never became healthy" >&2; cat "$LOG" >&2; exit 1; }

MODELS=$(curl -sf "http://$ADDR/v1/models")
grep -qF '"versions":[1]' <<<"$MODELS" || { echo "registry listing is not version 1: $MODELS" >&2; exit 1; }

DETECT=$(curl -sf -XPOST "http://$ADDR/v1/detect" -d '{"database":"demo"}')
V=$(jnum model_version <<<"$DETECT")
[[ "$V" == 1 ]] || { echo "detect served model_version=$V, want 1" >&2; exit 1; }

# 3. Republish the serving weights: every page is version 1's.
PUB=$(curl -sf -XPOST "http://$ADDR/v1/models/publish" -d '{}')
PAGES=$(jnum pages <<<"$PUB")
NEW=$(jnum new_pages <<<"$PUB")
[[ "$(jnum version <<<"$PUB")" == 2 ]] || { echo "republish version != 2: $PUB" >&2; exit 1; }
[[ "$PAGES" -gt 0 && "${NEW:-0}" == 0 ]] || { echo "republish stored $NEW new of $PAGES pages, want 0: $PUB" >&2; exit 1; }

MODELS=$(curl -sf "http://$ADDR/v1/models")
LOGICAL=$(jnum logical_bytes <<<"$MODELS")
STORED=$(jnum stored_bytes <<<"$MODELS")
SAVED=$(jnum saved_bytes <<<"$MODELS")
[[ "$STORED" -lt "$LOGICAL" && "$SAVED" -gt 0 ]] \
    || { echo "two versions did not dedup: stored=$STORED logical=$LOGICAL saved=$SAVED" >&2; exit 1; }

# Two publishes at once: each must claim its own version.
PUBPIDS=()
for p in a b; do
    curl -s -o "$TMP/pub_$p" -w '%{http_code}' -XPOST "http://$ADDR/v1/models/publish" -d '{}' >"$TMP/code_$p" &
    PUBPIDS+=($!)
done
wait "${PUBPIDS[@]}"
VA=$(jnum version <"$TMP/pub_a")
VB=$(jnum version <"$TMP/pub_b")
[[ "$(cat "$TMP/code_a") $(cat "$TMP/code_b")" == "200 200" && -n "$VA" && -n "$VB" && "$VA" != "$VB" ]] \
    || { echo "concurrent publishes: codes $(cat "$TMP/code_a") $(cat "$TMP/code_b"), versions '$VA' '$VB'" >&2; exit 1; }
MODELS=$(curl -sf "http://$ADDR/v1/models")
grep -qF '"versions":[1,2,3,4]' <<<"$MODELS" || { echo "listing after the concurrent publishes: $MODELS" >&2; exit 1; }

# 4. Hot-swap between the versions under concurrent detect load.
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
[[ "$(jnum swaps <<<"$MODELBLOCK")" == 2 ]] || { echo "swap count != 2: $MODELBLOCK" >&2; exit 1; }
DETECT=$(curl -sf -XPOST "http://$ADDR/v1/detect" -d '{"database":"demo"}')
[[ "$(jnum model_version <<<"$DETECT")" == 2 ]] || { echo "post-swap detect not on version 2" >&2; exit 1; }

echo "registry smoke: OK (pages=$PAGES new_pages=$NEW saved_bytes=$SAVED)"
