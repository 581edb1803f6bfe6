#!/usr/bin/env bash
# Tiered-cache smoke test: train one tiny model with tastetrain, boot
# tasted on its file with the result cache on, run the
# same detect twice, and assert (a) the second response is byte-identical
# to the first modulo the duration stamp, (b) /metrics reports warm cache
# hits > 0, (c) the warm detect of the unchanged tables issued the one
# schema read and no scan (the table memos answered it), and (d) /v1/stats
# exposes the cache block. Then boot it again
# with budgets below one detect's entries and assert that each tier evicted
# and that the warm answer still equals the cold one. Run from the repo
# root (CI does).
set -euo pipefail

ADDR=127.0.0.1:18090
DEBUG=127.0.0.1:18091
TMP=$(mktemp -d)
LOG="$TMP/tasted.log"
BIN="$TMP/tasted"

cleanup() {
    [[ -n "${PID:-}" ]] && kill "$PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/tasted
go build -o "$TMP/tastetrain" ./cmd/tastetrain
# One tiny model, trained once, serves both boots; the smoke test cares
# about the caching path, not accuracy. Both cache tiers explicitly on.
"$TMP/tastetrain" -tables 24 -epochs 1 -o "$TMP/taste.ckpt" >"$TMP/train.log" 2>&1 \
    || { cat "$TMP/train.log" >&2; exit 1; }
"$BIN" -checkpoint "$TMP/taste.ckpt" -tables 24 -addr "$ADDR" -debug-addr "$DEBUG" \
    -cache-bytes $((64 * 1024 * 1024)) -result-cache $((16 * 1024 * 1024)) >"$LOG" 2>&1 &
PID=$!

# Reading the model file happens before the listener comes up.
for i in $(seq 1 120); do
    if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "tasted exited before becoming healthy:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 1
done
curl -sf "http://$ADDR/healthz" >/dev/null || { echo "tasted never became healthy" >&2; cat "$LOG" >&2; exit 1; }

REQ='{"database":"demo","pipelined":true}'
canon() { sed 's/"duration_ms":[0-9]*//'; }

# ops <op>: how many simdb operations of the kind tasted has issued.
ops() {
    curl -sf "http://$DEBUG/metrics" | grep -F "taste_simdb_op_seconds_count{op=\"$1\"}" | awk '{s+=$2} END {print s+0}'
}

COLD=$(curl -sf -XPOST "http://$ADDR/v1/detect" -d "$REQ" | canon)
SCANS=$(ops scan) SCHEMA=$(ops table_metadata)
WARM=$(curl -sf -XPOST "http://$ADDR/v1/detect" -d "$REQ" | canon)
if [[ "$COLD" != "$WARM" ]]; then
    echo "warm response differs from cold response" >&2
    diff <(echo "$COLD") <(echo "$WARM") | head -20 >&2
    exit 1
fi
[[ "$SCANS" -gt 0 ]] || { echo "the cold detect scanned nothing: the model must be uncertain somewhere" >&2; exit 1; }
[[ "$(ops scan)" -eq "$SCANS" ]] \
    || { echo "the warm detect of unchanged tables scanned: scans $SCANS -> $(ops scan)" >&2; exit 1; }
[[ "$(ops table_metadata)" -eq $((SCHEMA + 1)) ]] \
    || { echo "the warm detect issued $(( $(ops table_metadata) - SCHEMA )) schema reads, want 1" >&2; exit 1; }

METRICS=$(curl -sf "http://$DEBUG/metrics")
hits() { # hits <tier>: sum of the tier's hit counter on /metrics
    grep -F "taste_cache_hits_total{tier=\"$1\"}" <<<"$METRICS" | awk '{s+=$2} END {print s+0}'
}
RESULT_HITS=$(hits result)
LATENT_HITS=$(hits latent)
if [[ "$RESULT_HITS" -le 0 && "$LATENT_HITS" -le 0 ]]; then
    echo "repeated detect produced no warm cache hits (latent=$LATENT_HITS result=$RESULT_HITS)" >&2
    grep taste_cache_ <<<"$METRICS" >&2 || true
    exit 1
fi

# Occupancy gauges must be present and the stats block populated.
grep -qF 'taste_cache_bytes{tier="latent"}' <<<"$METRICS" \
    || { echo "missing taste_cache_bytes gauge" >&2; exit 1; }
STATS=$(curl -sf "http://$ADDR/v1/stats")
for key in '"latent"' '"result"' '"singleflight"'; do
    grep -qF "$key" <<<"$STATS" || { echo "/v1/stats cache block missing $key: $STATS" >&2; exit 1; }
done

# Budgets below one detect's entries: the latent tier (64 KiB) holds any one
# of this model's three chunk encodings (29 440, 46 336 and 50 944 bytes)
# but not two, and the result tier (2 560 bytes) any one of its row entries
# (1 344 or 2 432 bytes) but not two, so the cold detect already evicts in
# each tier, and the warm one recomputes what was evicted.
kill "$PID"
wait "$PID" 2>/dev/null || true
"$BIN" -checkpoint "$TMP/taste.ckpt" -tables 24 -addr "$ADDR" -debug-addr "$DEBUG" \
    -cache-bytes $((64 * 1024)) -result-cache 2560 >"$LOG" 2>&1 &
PID=$!
for i in $(seq 1 120); do
    curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
    sleep 1
done
curl -sf "http://$ADDR/healthz" >/dev/null || { echo "small-budget tasted never became healthy" >&2; cat "$LOG" >&2; exit 1; }
SMALL_COLD=$(curl -sf -XPOST "http://$ADDR/v1/detect" -d "$REQ" | canon)
SMALL_WARM=$(curl -sf -XPOST "http://$ADDR/v1/detect" -d "$REQ" | canon)
if [[ "$SMALL_COLD" != "$COLD" || "$SMALL_WARM" != "$COLD" ]]; then
    echo "small-budget responses differ from the full-budget one" >&2
    diff <(echo "$COLD") <(echo "$SMALL_WARM") | head -20 >&2
    exit 1
fi
METRICS=$(curl -sf "http://$DEBUG/metrics")
evictions() { # evictions <tier>: the tier's eviction counter on /metrics
    grep -F "taste_cache_evictions_total{tier=\"$1\"}" <<<"$METRICS" | awk '{s+=$2} END {print s+0}'
}
LATENT_EVICTIONS=$(evictions latent)
RESULT_EVICTIONS=$(evictions result)
[[ "$LATENT_EVICTIONS" -gt 0 && "$RESULT_EVICTIONS" -gt 0 ]] \
    || { echo "small budgets evicted nothing in a tier (latent=$LATENT_EVICTIONS result=$RESULT_EVICTIONS)" >&2; exit 1; }

echo "cache smoke: OK (latent_hits=$LATENT_HITS result_hits=$RESULT_HITS evictions latent=$LATENT_EVICTIONS result=$RESULT_EVICTIONS)"
