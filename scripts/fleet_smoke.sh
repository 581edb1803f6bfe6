#!/usr/bin/env bash
# Fleet smoke test: boot two tasted replicas and a tastefleet coordinator,
# route a detect through the ring, scrape the aggregated fleet /metrics,
# then kill one replica and verify failover keeps the fleet answering.
# Last, the type passthrough, a GET on /v1/detect, and a replica that
# answers 5xx. Run from the repo root (CI does).
set -euo pipefail

R0=127.0.0.1:18085
R1=127.0.0.1:18086
FLEET=127.0.0.1:18087
INNER=127.0.0.1:18088
OUTER=127.0.0.1:18089
BINDIR=$(mktemp -d)
LOG0="$BINDIR/r0.log"
LOG1="$BINDIR/r1.log"
LOGF="$BINDIR/fleet.log"
LOGI="$BINDIR/inner.log"
LOGO="$BINDIR/outer.log"

cleanup() {
    for pid in "${PID0:-}" "${PID1:-}" "${PIDF:-}" "${PIDI:-}" "${PIDO:-}"; do
        [[ -n "$pid" ]] && kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$BINDIR"
}
trap cleanup EXIT

go build -o "$BINDIR/tasted" ./cmd/tasted
go build -o "$BINDIR/tastefleet" ./cmd/tastefleet
go build -o "$BINDIR/tastetrain" ./cmd/tastetrain

# Two replicas serving one tiny model file, trained once; the smoke test
# cares about routing, not accuracy. Identical -tables/-seed so both host
# the same "demo" tenant.
"$BINDIR/tastetrain" -tables 24 -epochs 1 -o "$BINDIR/taste.ckpt" >"$BINDIR/train.log" 2>&1 \
    || { cat "$BINDIR/train.log" >&2; exit 1; }
"$BINDIR/tasted" -checkpoint "$BINDIR/taste.ckpt" -tables 24 -addr "$R0" >"$LOG0" 2>&1 &
PID0=$!
"$BINDIR/tasted" -checkpoint "$BINDIR/taste.ckpt" -tables 24 -addr "$R1" >"$LOG1" 2>&1 &
PID1=$!

wait_healthy() { # wait_healthy <addr> <pid> <log> <name>
    for i in $(seq 1 120); do
        if curl -sf "http://$1/healthz" >/dev/null 2>&1; then
            return 0
        fi
        if ! kill -0 "$2" 2>/dev/null; then
            echo "$4 exited before becoming healthy:" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 1
    done
    echo "$4 never became healthy" >&2
    cat "$3" >&2
    exit 1
}
wait_healthy "$R0" "$PID0" "$LOG0" "replica r0"
wait_healthy "$R1" "$PID1" "$LOG1" "replica r1"

# The fleet's one policy: probes once a second, ejects after 3 failures, so
# the dead replica below is out within the 10 s the test waits.
"$BINDIR/tastefleet" -addr "$FLEET" -replicas "r0=$R0,r1=$R1" >"$LOGF" 2>&1 &
PIDF=$!
wait_healthy "$FLEET" "$PIDF" "$LOGF" "tastefleet"

# A routed detect must succeed and name the serving replica.
DETECT=$(curl -sfi -XPOST "http://$FLEET/v1/detect" -d '{"database":"demo"}')
grep -q '^X-Taste-Replica: r[01]' <<<"$DETECT" \
    || { echo "detect response names no replica:" >&2; head -20 <<<"$DETECT" >&2; exit 1; }
grep -q '"total_columns"' <<<"$DETECT" \
    || { echo "detect response carries no results:" >&2; head -20 <<<"$DETECT" >&2; exit 1; }

# The fleet /metrics must serve both the coordinator's own routing series
# and the aggregation of the replicas' detector series.
METRICS=$(curl -sf "http://$FLEET/metrics")
for series in \
    'taste_fleet_requests_total{outcome="routed"}' \
    'taste_fleet_replicas_healthy 2' \
    'taste_detect_requests_total'
do
    if ! grep -qF "$series" <<<"$METRICS"; then
        echo "missing series on fleet /metrics: $series" >&2
        echo "$METRICS" | head -40 >&2
        exit 1
    fi
done

# Kill one replica: detects must keep answering via failover, and the
# prober must mark the dead replica unhealthy.
kill "$PID0"
PID0=
for i in $(seq 1 40); do
    STATS=$(curl -sf "http://$FLEET/v1/stats")
    if grep -q '"name":"r0","url":[^,]*,"healthy":false' <<<"$STATS"; then
        break
    fi
    sleep 0.25
done
grep -q '"name":"r0","url":[^,]*,"healthy":false' <<<"$STATS" \
    || { echo "dead replica never ejected: $STATS" >&2; exit 1; }

FAILOVER=$(curl -sfi -XPOST "http://$FLEET/v1/detect" -d '{"database":"demo"}')
grep -q '^X-Taste-Replica: r1' <<<"$FAILOVER" \
    || { echo "failover detect not served by surviving replica:" >&2; head -20 <<<"$FAILOVER" >&2; exit 1; }

# The type domain passes through from a healthy replica; a detect must be a
# POST.
TYPES=$(curl -sf "http://$FLEET/v1/types")
grep -qF '{"background":"type:null","types":["' <<<"$TYPES" \
    || { echo "fleet /v1/types: $TYPES" >&2; exit 1; }
GETDETECT=$(curl -s -w ' %{http_code}' "http://$FLEET/v1/detect")
[[ "$GETDETECT" == '{"error":"use POST"}'*' 405' ]] \
    || { echo "GET on the fleet's /v1/detect: $GETDETECT, want 405" >&2; exit 1; }

# A replica that answers 5xx: a second coordinator whose one replica is the
# dead r0 answers 503, and a third coordinator in front of it retries, then
# answers 503 naming the status.
"$BINDIR/tastefleet" -addr "$INNER" -replicas "dead=$R0" >"$LOGI" 2>&1 &
PIDI=$!
"$BINDIR/tastefleet" -addr "$OUTER" -replicas "inner=$INNER" >"$LOGO" 2>&1 &
PIDO=$!
wait_healthy "$INNER" "$PIDI" "$LOGI" "the inner tastefleet"
wait_healthy "$OUTER" "$PIDO" "$LOGO" "the outer tastefleet"
NESTED=$(curl -s -w ' %{http_code}' -XPOST "http://$OUTER/v1/detect" -d '{"database":"demo"}')
[[ "$NESTED" == *'"reason":"replica inner: replica status 503"'*' 503' ]] \
    || { echo "detect through a replica answering 503: $NESTED" >&2; exit 1; }

echo "fleet smoke: OK"
