#!/usr/bin/env bash
# Observability smoke test: boot tasted with the debug listener, fire one
# traced detect request, then verify that /metrics serves the core series,
# that a second request naming two tables costs one metadata read, and that
# the pprof index answers. Last come the request shapes a client can send
# besides a plain detect, each with its status and body. Run from the repo
# root (CI does).
set -euo pipefail

ADDR=127.0.0.1:18080
DEBUG=127.0.0.1:18081
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

# The request shapes a client can send besides a plain detect, each with its
# status and body. post FILE POSTs FILE to /v1/detect, get PATH GETs PATH;
# both set CODE and OUT.
BODY="$TMP/body"
post() { OUT=$(curl -s -w '\n%{http_code}' -XPOST "http://$ADDR/v1/detect" --data-binary "@$1"); CODE=${OUT##*$'\n'}; OUT=${OUT%$'\n'*}; }
get() { OUT=$(curl -s -w '\n%{http_code}' "http://$ADDR$1"); CODE=${OUT##*$'\n'}; OUT=${OUT%$'\n'*}; }
want() { # want STATUS STRING WHAT: the last response has STATUS and a body holding STRING
    [[ "$CODE" == "$1" ]] && grep -qF -- "$2" <<<"$OUT" \
        || { echo "$3: status $CODE, body $OUT; want $1 with $2" >&2; exit 1; }
}
canon() { sed 's/"duration_ms":[0-9]*//' <<<"$OUT"; }
xs() { printf "x%.0s" $(seq 1 "$1"); }

get /v1/detect
want 405 '{"error":"use POST"}' "GET /v1/detect"

printf '{"database":' >"$BODY"; post "$BODY"
want 400 '{"error":"bad request body: unexpected EOF"}' "malformed JSON"

{ printf '{"database":"demo"'; head -c $((4 << 20)) /dev/zero | tr '\0' ' '; printf '}'; } >"$BODY"; post "$BODY"
want 413 '{"error":"body exceeds 4194304 bytes"}' "a body over MaxBodyBytes"

printf '{"database":"%s"}' "$(xs 200)" >"$BODY"; post "$BODY"
want 404 "{\"error\":\"unknown database \\\"$(xs 128)\\\"… (200 bytes)\"}" "an unknown database named in 200 bytes"

printf '{"database":"demo","tables":["no_such_table"]}' >"$BODY"; post "$BODY"
want 200 '"tables":null,' "an unknown table"
want 200 '"errors":["table no_such_table: no such table in database demo"]}' "an unknown table"

# One request in its short form, padded past the 4 KiB the hand-written
# parser takes, and with a deadline it meets: the same bytes each time.
printf '{"database":"demo","tables":["%s"]}' "$T1" >"$BODY"; post "$BODY"
want 200 "\"table\":\"$T1\",\"columns\":[{" "the short form"
SHORT=$(canon)
{ printf '{"database":"demo",'; head -c 5000 /dev/zero | tr '\0' ' '; printf '"tables":["%s"]}' "$T1"; } >"$BODY"; post "$BODY"
[[ "$CODE" == 200 && "$(canon)" == "$SHORT" ]] || { echo "padded request: status $CODE, body $OUT; want $SHORT" >&2; exit 1; }
printf '{"database":"demo","tables":["%s"],"deadline_ms":60000}' "$T1" >"$BODY"; post "$BODY"
[[ "$CODE" == 200 && "$(canon)" == "$SHORT" ]] || { echo "request with deadline_ms: status $CODE, body $OUT; want $SHORT" >&2; exit 1; }

# A body that ends before its Content-Length: the read error is a 400.
CUT=$(python3 -c '
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=10)
s.sendall(b"POST /v1/detect HTTP/1.1\r\nHost: smoke\r\nContent-Length: 100\r\n\r\n{\"database\":\"demo\"")
s.shutdown(socket.SHUT_WR)
print(s.recv(4096).decode().split("\r\n")[0])
' "$ADDR")
[[ "$CUT" == "HTTP/1.1 400 Bad Request" ]] || { echo "a body cut short of its Content-Length: $CUT, want 400" >&2; exit 1; }

get /v1/types
want 200 '{"background":"type:null","types":["' "GET /v1/types"

echo "metrics smoke: OK"
