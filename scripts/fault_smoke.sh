#!/usr/bin/env bash
# Fault smoke test: the degradation ladder (DESIGN.md §7) against real
# binaries. tastetrain trains one model; two tasted processes boot from
# its one file, so they serve the same bits by construction. One serves a
# demo tenant that injects
# transient faults (-fault-prob 0.3 -fault-seed 1), its twin serves the
# same tenant fault-free. Both answer whole-database detects, sequential
# and pipelined, and a single-table detect per table. Every faulty answer
# must be a 200 in which each column either is marked degraded with a
# degrade_reason or equals the twin's column exactly, and every table the
# twin answers is answered too (duration_ms and retries may differ). The
# faults must have cost retries, so the ladder was exercised.
#
# Run from the repo root (CI does).
set -euo pipefail

FAULTY=127.0.0.1:18110
CLEAN=127.0.0.1:18111
TMP=$(mktemp -d)
BIN="$TMP/tasted"

cleanup() {
    for p in ${PIDS:-}; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/tasted
go build -o "$TMP/tastetrain" ./cmd/tastetrain
"$TMP/tastetrain" -tables 100 -seed 1 -epochs 1 -o "$TMP/taste.ckpt" >"$TMP/train.log" 2>&1 \
    || { cat "$TMP/train.log" >&2; exit 1; }
BOOT=(-checkpoint "$TMP/taste.ckpt" -tables 100 -seed 1)
# The faulty server runs with its result tier off, so every detect reads
# and meets the faults: with it on, a table's memo answers its repeat
# detects with the schema read alone (DESIGN.md §14), which draws no scan
# fault, and the ladder would see little more than the first detect.
"$BIN" "${BOOT[@]}" -addr "$FAULTY" -fault-prob 0.3 -fault-seed 1 -result-cache 0 >"$TMP/faulty.log" 2>&1 &
PIDS="$!"
"$BIN" "${BOOT[@]}" -addr "$CLEAN" >"$TMP/clean.log" 2>&1 &
PIDS="$PIDS $!"

for addr in "$FAULTY" "$CLEAN"; do
    for i in $(seq 1 180); do
        curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
        sleep 1
    done
    curl -sf "http://$addr/healthz" >/dev/null \
        || { echo "tasted at $addr never became healthy" >&2; cat "$TMP"/*.log >&2; exit 1; }
done

# detect ADDR BODY NAME: POST the body, keep the response as NAME.json.
detect() {
    local code
    code=$(curl -s -o "$TMP/$3.json" -w '%{http_code}' -XPOST "http://$1/v1/detect" -d "$2")
    [[ "$code" == 200 ]] || { echo "$1 $2: status $code: $(cat "$TMP/$3.json")" >&2; exit 1; }
}

detect "$CLEAN" '{"database":"demo"}' clean_all
TABLES=$(python3 -c 'import json,sys; print(" ".join(t["table"] for t in json.load(open(sys.argv[1]))["tables"]))' "$TMP/clean_all.json")
[[ -n "$TABLES" ]] || { echo "the fault-free twin answered no table" >&2; exit 1; }

PAIRS=""
for pipelined in false true; do
    detect "$CLEAN" "{\"database\":\"demo\",\"pipelined\":$pipelined}" "clean_db_$pipelined"
    detect "$FAULTY" "{\"database\":\"demo\",\"pipelined\":$pipelined}" "faulty_db_$pipelined"
    PAIRS="$PAIRS faulty_db_$pipelined:clean_db_$pipelined"
done
for t in $TABLES; do
    detect "$CLEAN" "{\"database\":\"demo\",\"tables\":[\"$t\"]}" "clean_$t"
    detect "$FAULTY" "{\"database\":\"demo\",\"tables\":[\"$t\"]}" "faulty_$t"
    PAIRS="$PAIRS faulty_$t:clean_$t"
done

python3 - "$TMP" $PAIRS <<'EOF'
import json, sys

tmp, pairs = sys.argv[1], sys.argv[2:]
bad, retries, degraded, columns = [], 0, 0, 0
for pair in pairs:
    faulty_name, clean_name = pair.split(":")
    faulty = json.load(open(f"{tmp}/{faulty_name}.json"))
    clean = json.load(open(f"{tmp}/{clean_name}.json"))
    retries += faulty["retries"]
    if clean.get("errors") or clean["degraded"]:
        bad.append(f"{clean_name}: the fault-free twin degraded or erred: {clean.get('errors')}")
    want = {t["table"]: {c["column"]: c for c in t["columns"]} for t in clean["tables"]}
    got = {t["table"]: t for t in faulty["tables"]}
    for table, cols in want.items():
        if table not in got:
            bad.append(f"{faulty_name}: table {table} missing")
            continue
        if got[table].get("skipped"):
            bad.append(f"{faulty_name}: table {table} skipped without a deadline")
            continue
        names = [c["column"] for c in got[table]["columns"]]
        if sorted(names) != sorted(cols):
            bad.append(f"{faulty_name}: table {table} answered columns {names}, want {sorted(cols)}")
        for c in got[table]["columns"]:
            columns += 1
            if c.get("degraded"):
                degraded += 1
                if not c.get("degrade_reason"):
                    bad.append(f"{faulty_name}: {table}.{c['column']} degraded without a reason")
            elif c != cols.get(c["column"]):
                bad.append(f"{faulty_name}: {table}.{c['column']} = {c}, fault-free {cols.get(c['column'])}")
    for table in got:
        if table not in want:
            bad.append(f"{faulty_name}: table {table} the fault-free twin does not have")
if retries == 0:
    bad.append("no request spent a retry: the faults never fired")
for line in bad:
    print(line, file=sys.stderr)
if bad:
    sys.exit(1)
print(f"fault smoke: OK ({len(pairs)} request pairs, {columns} columns, {degraded} degraded with a reason, {retries} retries)")
EOF
