#!/usr/bin/env bash
# Observability smoke test: boot tasted with the debug listener, fire one
# traced detect request, then verify that /metrics serves the core series,
# that a second request naming two tables costs one metadata read, and that
# the pprof index answers. Run from the repo root (CI does).
set -euo pipefail

ADDR=127.0.0.1:18080
DEBUG=127.0.0.1:18081
LOG=$(mktemp)
BIN=$(mktemp -d)/tasted

cleanup() {
    [[ -n "${PID:-}" ]] && kill "$PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -f "$LOG"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/tasted
# A tiny self-trained model: the smoke test cares about the serving path,
# not accuracy.
"$BIN" -train -epochs 1 -tables 24 -addr "$ADDR" -debug-addr "$DEBUG" >"$LOG" 2>&1 &
PID=$!

# Training happens before the listener comes up; poll generously.
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

# One traced detection so every stage records something.
DETECT=$(curl -sf -XPOST "http://$ADDR/v1/detect" \
    -d '{"database":"demo","pipelined":true,"trace":true}')
echo "$DETECT" | grep -q '"trace"' || { echo "detect response carries no trace: $DETECT" >&2; exit 1; }

METRICS=$(curl -sf "http://$DEBUG/metrics")
for series in \
    'taste_stage_seconds_bucket{stage="s1"' \
    'taste_stage_seconds_bucket{stage="s4"' \
    'taste_pipeline_queue_wait_seconds' \
    'taste_detect_requests_total{outcome="ok"}' \
    'taste_detect_request_seconds_count' \
    'taste_adtd_forward_seconds' \
    'taste_simdb_op_seconds' \
    'taste_cache_hits_total' \
    'taste_detector_tables_total'
do
    if ! grep -qF "$series" <<<"$METRICS"; then
        echo "missing series on /metrics: $series" >&2
        echo "$METRICS" | head -40 >&2
        exit 1
    fi
done

# The one clean detect paid the tenant's one handshake and left that
# connection warm in the pool (DESIGN.md §7 "Connection reuse").
grep -qxF 'taste_connpool_checkouts_total{outcome="miss"} 1' <<<"$METRICS" \
    && grep -qxF 'taste_connpool_idle 1' <<<"$METRICS" \
    || { echo "connection pool series wrong after one detect:" >&2; grep taste_connpool_ <<<"$METRICS" >&2; exit 1; }

# A request that names two of the demo tables (the first response's first
# two) runs the same path as the whole-database one: pipelined, and one
# information_schema read for both tables. It reuses the pooled connection.
NAMES=$(grep -o '"table":"[^"]*"' <<<"$DETECT" | cut -d'"' -f4 | awk 'NR <= 2')
T1=$(sed -n 1p <<<"$NAMES"); T2=$(sed -n 2p <<<"$NAMES")
[[ -n "${T1:-}" && -n "${T2:-}" ]] || { echo "first detect named fewer than two tables: $DETECT" >&2; exit 1; }
meta_reads() { grep -F 'taste_simdb_op_seconds_count{op="table_metadata"}' <<<"$1" | awk '{print $2}'; }
META_BEFORE=$(meta_reads "$METRICS")
NAMED_OUT=$(mktemp)
STATUS=$(curl -s -o "$NAMED_OUT" -w '%{http_code}' -XPOST "http://$ADDR/v1/detect" \
    -d "{\"database\":\"demo\",\"tables\":[\"$T1\",\"$T2\"],\"pipelined\":true}")
NAMED=$(cat "$NAMED_OUT"); rm -f "$NAMED_OUT"
[[ "$STATUS" == 200 ]] || { echo "named-tables detect: status $STATUS: $NAMED" >&2; exit 1; }
for t in "$T1" "$T2"; do
    grep -qF "\"table\":\"$t\",\"columns\":[{" <<<"$NAMED" \
        || { echo "named-tables detect did not answer $t: $NAMED" >&2; exit 1; }
done
if grep -qF '"skipped":true' <<<"$NAMED" || grep -qF '"errors"' <<<"$NAMED"; then
    echo "named-tables detect skipped a table or reported an error: $NAMED" >&2; exit 1
fi
METRICS_AFTER=$(curl -sf "http://$DEBUG/metrics")
META_AFTER=$(meta_reads "$METRICS_AFTER")
if ! awk -v a="$META_BEFORE" -v b="$META_AFTER" 'BEGIN { exit !(b - a == 1) }'; then
    echo "named-tables detect made $META_BEFORE -> $META_AFTER table_metadata reads, want exactly one" >&2
    exit 1
fi
grep -qxF 'taste_connpool_checkouts_total{outcome="miss"} 1' <<<"$METRICS_AFTER" \
    && grep -qxF 'taste_connpool_idle 1' <<<"$METRICS_AFTER" \
    || { echo "named-tables detect did not reuse the pooled connection:" >&2; grep taste_connpool_ <<<"$METRICS_AFTER" >&2; exit 1; }

# /metrics must also be mounted on the tenant-facing mux. Capture before
# grepping: piping curl straight into grep -q trips pipefail when grep
# exits at the first match and curl takes EPIPE on the rest.
SVC_METRICS=$(curl -sf "http://$ADDR/metrics") || SVC_METRICS=""
grep -qF 'taste_detect_requests_total' <<<"$SVC_METRICS" \
    || { echo "/metrics missing on the service listener" >&2; exit 1; }

# pprof must answer on the debug listener only.
PPROF=$(curl -sf "http://$DEBUG/debug/pprof/") || PPROF=""
grep -qi 'profile' <<<"$PPROF" \
    || { echo "pprof index not served" >&2; exit 1; }

echo "metrics smoke: OK"
