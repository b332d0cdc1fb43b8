#!/usr/bin/env sh
# Serve smoke test: boot onex-server on a generated dataset, register a
# second dataset over the v1 API, query both, verify the result cache hits,
# append to the first and shut down gracefully, then restart on the same
# snapshot directory and require the reload to serve what was written.
# Mirrored by the CI serve-smoke job via `make serve-smoke`.
set -eu

ADDR="${ONEX_SMOKE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
BIN="${TMPDIR:-/tmp}/onex-server-smoke.$$"
SNAPDIR="$(mktemp -d "${TMPDIR:-/tmp}/onex-smoke-snap.XXXXXX")"

cleanup() {
    [ -n "${SERVER_PID:-}" ] && kill "$SERVER_PID" 2>/dev/null || true
    [ -n "${SERVER_PID:-}" ] && wait "$SERVER_PID" 2>/dev/null || true
    rm -rf "$BIN" "$SNAPDIR"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$BIN" ./cmd/onex-server

start_server() {
    echo "== start ($ADDR)"
    "$BIN" -addr "$ADDR" -generate ItalyPower -scale 0.2 -st 0.25 -lengths 6 \
        -snapshot-dir "$SNAPDIR" &
    SERVER_PID=$!

    echo "== wait for /healthz"
    for i in $(seq 1 50); do
        if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
        kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died" >&2; exit 1; }
        sleep 0.2
    done
    curl -sf "$BASE/healthz" | grep -q '"ok"' || { echo "healthz failed" >&2; exit 1; }
}

stop_server() {
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=
}

start_server

check_code() { # method url want [body]
    method=$1; url=$2; want=$3; body=${4:-}
    if [ -n "$body" ]; then
        code=$(curl -s -o /dev/null -w '%{http_code}' -X "$method" -d "$body" "$url")
    else
        code=$(curl -s -o /dev/null -w '%{http_code}' -X "$method" "$url")
    fi
    if [ "$code" != "$want" ]; then
        echo "FAIL: $method $url -> $code (want $want)" >&2
        exit 1
    fi
    echo "ok: $method $url -> $code"
}

echo "== register a second dataset over /v1"
check_code POST "$BASE/v1/datasets" 201 \
    '{"name":"ecg","generator":"ECG","scale":0.05,"st":0.25,"lengths":5,"wait":true}'

echo "== query both datasets"
Q8='[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5]'
IP_LEN=$(curl -sf "$BASE/v1/datasets/ItalyPower/stats" | sed 's/.*"lengths":\[\([0-9]*\).*/\1/')
IP_Q=$(awk -v n="$IP_LEN" 'BEGIN{printf "["; for(i=0;i<n;i++){printf "%s0.5", (i?",":"")}; printf "]"}')
check_code POST "$BASE/v1/datasets/ItalyPower/match" 200 "{\"query\":$IP_Q}"
check_code POST "$BASE/v1/datasets/ItalyPower/match" 200 "{\"query\":$IP_Q}"
check_code POST "$BASE/v1/datasets/ecg/match" 200 "{\"query\":$Q8}"
check_code GET "$BASE/v1/datasets" 200
check_code GET "$BASE/v1/stats" 200

echo "== uniform batch endpoint"
check_code POST "$BASE/v1/datasets/ItalyPower/match/batch" 200 \
    "{\"queries\":[{\"query\":$IP_Q},{\"query\":$IP_Q,\"k\":3}]}"

echo "== async job: submit, poll to done"
JOB_ID=$(curl -sf -X POST -d "{\"query\":$IP_Q}" \
    "$BASE/v1/datasets/ItalyPower/match/jobs" | sed 's/.*"id":"\([^"]*\)".*/\1/')
[ -n "$JOB_ID" ] || { echo "FAIL: job submission returned no id" >&2; exit 1; }
for i in $(seq 1 50); do
    STATE=$(curl -sf "$BASE/v1/jobs/$JOB_ID" | sed 's/.*"state":"\([^"]*\)".*/\1/')
    [ "$STATE" = "done" ] && break
    [ "$STATE" = "failed" ] && { echo "FAIL: job failed" >&2; exit 1; }
    sleep 0.1
done
[ "$STATE" = "done" ] || { echo "FAIL: job stuck in state $STATE" >&2; exit 1; }
echo "ok: job $JOB_ID -> done"

echo "== verify the repeated query hit the cache"
curl -sf "$BASE/v1/stats" | grep -q '"hits":0,' && { echo "FAIL: no cache hits" >&2; exit 1; }

echo "== /v1/stats exposes latency histograms and job counters"
STATS=$(curl -sf "$BASE/v1/stats")
echo "$STATS" | grep -q '"latency"' || { echo "FAIL: stats missing latency map" >&2; exit 1; }
echo "$STATS" | grep -q '"p99Millis"' || { echo "FAIL: stats missing latency quantiles" >&2; exit 1; }
echo "$STATS" | grep -q '"submitted":' || { echo "FAIL: stats missing job counters" >&2; exit 1; }

echo "== X-Request-Id: minted when absent, honored when sent"
MINTED=$(curl -sf -D - -o /dev/null "$BASE/healthz" | awk 'tolower($1)=="x-request-id:"{print $2}' | tr -d '\r')
[ -n "$MINTED" ] || { echo "FAIL: no X-Request-Id minted" >&2; exit 1; }
ECHOED=$(curl -sf -D - -o /dev/null -H 'X-Request-Id: smoke-req-1' "$BASE/healthz" \
    | awk 'tolower($1)=="x-request-id:"{print $2}' | tr -d '\r')
[ "$ECHOED" = "smoke-req-1" ] || { echo "FAIL: inbound X-Request-Id not echoed (got '$ECHOED')" >&2; exit 1; }
echo "ok: request ids round-trip"

echo "== /metrics: Prometheus text format sanity"
METRICS=$(curl -sf "$BASE/metrics")
for FAM in onex_http_requests_total onex_cache_lookups_total onex_query_work_total \
    onex_lifecycle_events_total onex_jobs_total onex_http_request_duration_seconds_sum; do
    echo "$METRICS" | grep -q "^$FAM" || { echo "FAIL: /metrics missing $FAM" >&2; exit 1; }
done
# Native histograms must be cumulative (non-decreasing buckets per route)
# and end at the +Inf bucket == _count.
echo "$METRICS" | awk -F'} ' '
    /^onex_http_request_duration_seconds_bucket\{/ {
        route = $1; sub(/,le="[^"]*"/, "", route); val = $2 + 0
        if (route in last && val < last[route]) {
            print "FAIL: bucket decreases in " route; bad = 1; exit 1
        }
        last[route] = val; n++
    }
    /^onex_http_request_duration_seconds_count\{/ {
        route = $1; sub(/_count\{/, "_bucket{", route); val = $2 + 0
        if (last[route] != val) {
            print "FAIL: +Inf bucket != _count for " route; bad = 1; exit 1
        }
        checked++
    }
    END {
        if (bad) exit 1
        if (n == 0 || checked == 0) { print "FAIL: no histogram samples scraped"; exit 1 }
        printf "ok: %d bucket samples monotone, %d routes consistent\n", n, checked
    }
' || exit 1

echo "== error paths return structured JSON with machine-readable codes"
check_code GET "$BASE/v1/datasets/nope" 404
check_code POST "$BASE/v1/datasets" 400 '{"name":"bad","generator":"ECG","bogus":1}'
curl -s "$BASE/v1/datasets/nope" | grep -q '"code":"not_found"' \
    || { echo "FAIL: 404 body missing code field" >&2; exit 1; }

echo "== append, then record what ItalyPower serves"
check_code POST "$BASE/v1/datasets/ItalyPower/append" 200 '{"seriesId":0,"points":[0.2,0.6,0.9,0.4,0.1]}'
KNN_Q="{\"query\":$IP_Q,\"k\":3}"
matches_of() {
    curl -sf -X POST -d "$KNN_Q" "$BASE/v1/datasets/ItalyPower/match" | sed -n 's/.*\("matches":\[[^]]*\]\).*/\1/p'
}
subsequences_of() {
    curl -sf "$BASE/v1/datasets/ItalyPower" | sed -n 's/.*"subsequences":\([0-9]*\).*/\1/p'
}
curl -sf "$BASE/v1/datasets/ItalyPower" | grep -q '"snapshotError"' \
    && { echo "FAIL: the append's snapshot write failed" >&2; exit 1; }
MATCHES=$(matches_of)
SUBSEQ=$(subsequences_of)
[ -n "$MATCHES" ] && [ -n "$SUBSEQ" ] || { echo "FAIL: no matches or subsequences to compare" >&2; exit 1; }
echo "ok: $SUBSEQ subsequences after the append"

echo "== graceful shutdown (SIGTERM)"
stop_server

echo "== restart on the same snapshot directory: it serves what was written"
start_server
curl -sf "$BASE/v1/datasets/ItalyPower" | grep -q '"fromSnapshot":true' \
    || { echo "FAIL: ItalyPower was not reloaded from its snapshot" >&2; exit 1; }
[ "$(subsequences_of)" = "$SUBSEQ" ] \
    || { echo "FAIL: reloaded subsequences $(subsequences_of), want $SUBSEQ" >&2; exit 1; }
[ "$(matches_of)" = "$MATCHES" ] \
    || { echo "FAIL: reloaded k-NN answer differs: $(matches_of), want $MATCHES" >&2; exit 1; }
echo "ok: reload serves the appended snapshot"
stop_server
echo "serve smoke: PASS"
