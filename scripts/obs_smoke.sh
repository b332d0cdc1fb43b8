#!/usr/bin/env sh
# Observability smoke test: boot onex-server with JSON logging, a tiny
# slow-query threshold and pprof enabled, then verify the tracing surface
# end to end — explain traces on sync queries and jobs, the slow-query
# buffer, the structured request log and the profiling endpoints. Run via
# `make obs-smoke`.
set -eu

ADDR="${ONEX_OBS_SMOKE_ADDR:-127.0.0.1:18081}"
BASE="http://$ADDR"
BIN="${TMPDIR:-/tmp}/onex-server-obs-smoke.$$"
LOG="$(mktemp "${TMPDIR:-/tmp}/onex-obs-smoke-log.XXXXXX")"

cleanup() {
    [ -n "${SERVER_PID:-}" ] && kill "$SERVER_PID" 2>/dev/null || true
    [ -n "${SERVER_PID:-}" ] && wait "$SERVER_PID" 2>/dev/null || true
    rm -rf "$BIN" "$LOG"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$BIN" ./cmd/onex-server

echo "== start ($ADDR, json logs, -slow-query 1us, -pprof, -parallelism 1)"
# 1µs threshold marks effectively every request slow, so the slow-query
# log path is exercised deterministically. One shard at one worker is the
# layout whose k-NN must still verify members through the shard phase.
"$BIN" -addr "$ADDR" -generate ItalyPower -scale 0.2 -st 0.25 -lengths 6 \
    -log-format json -log-level info -slow-query 1us -pprof -parallelism 1 2>"$LOG" &
SERVER_PID=$!

echo "== wait for /healthz"
for i in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died; log:" >&2; cat "$LOG" >&2; exit 1; }
    sleep 0.2
done
curl -sf "$BASE/healthz" >/dev/null || { echo "healthz failed" >&2; exit 1; }

LEN=$(curl -sf "$BASE/v1/datasets/ItalyPower/stats" | sed 's/.*"lengths":\[\([0-9]*\).*/\1/')
Q=$(awk -v n="$LEN" 'BEGIN{printf "["; for(i=0;i<n;i++){printf "%s0.5", (i?",":"")}; printf "]"}')

echo "== explain: sync match returns result + trace"
EXPLAIN=$(curl -sf -H 'X-Request-Id: obs-smoke-7' -X POST \
    -d "{\"query\":$Q,\"explain\":true}" "$BASE/v1/datasets/ItalyPower/match")
echo "$EXPLAIN" | grep -q '"result"' || { echo "FAIL: explain lost the result" >&2; exit 1; }
echo "$EXPLAIN" | grep -q '"spans"' || { echo "FAIL: explain trace has no spans" >&2; exit 1; }
echo "$EXPLAIN" | grep -q '"requestId":"obs-smoke-7"' \
    || { echo "FAIL: trace does not carry the inbound request id" >&2; exit 1; }

echo "== explain: an unsharded k-NN verifies members in shard-verify spans"
KNN=$(curl -sf -X POST -d "{\"query\":$Q,\"k\":3,\"explain\":true}" "$BASE/v1/datasets/ItalyPower/match")
echo "$KNN" | grep -q '"result"' || { echo "FAIL: k-NN explain lost the result" >&2; exit 1; }
echo "$KNN" | grep -q '"name":"shard-verify"' \
    || { echo "FAIL: unsharded k-NN trace has no shard-verify span" >&2; exit 1; }

echo "== explain: ?explain=1 works on seasonal (GET)"
curl -sf "$BASE/v1/datasets/ItalyPower/seasonal?length=$LEN&explain=1" | grep -q '"trace"' \
    || { echo "FAIL: seasonal ?explain=1 returned no trace" >&2; exit 1; }

echo "== explain: single-form job attaches the trace to the result"
JOB_ID=$(curl -sf -X POST -d "{\"query\":$Q,\"explain\":true}" \
    "$BASE/v1/datasets/ItalyPower/match/jobs" | sed 's/.*"id":"\([^"]*\)".*/\1/')
[ -n "$JOB_ID" ] || { echo "FAIL: job submission returned no id" >&2; exit 1; }
for i in $(seq 1 50); do
    JOB=$(curl -sf "$BASE/v1/jobs/$JOB_ID")
    STATE=$(echo "$JOB" | sed 's/.*"state":"\([^"]*\)".*/\1/')
    [ "$STATE" = "done" ] && break
    [ "$STATE" = "failed" ] && { echo "FAIL: job failed: $JOB" >&2; exit 1; }
    sleep 0.1
done
[ "$STATE" = "done" ] || { echo "FAIL: job stuck in state $STATE" >&2; exit 1; }
echo "$JOB" | grep -q '"trace"' || { echo "FAIL: job result has no trace" >&2; exit 1; }

echo "== /v1/debug/slow retains traced queries (job entries tagged)"
SLOW=$(curl -sf "$BASE/v1/debug/slow")
echo "$SLOW" | grep -q '"count":0' && { echo "FAIL: slow buffer empty" >&2; exit 1; }
echo "$SLOW" | grep -q "\"jobId\":\"$JOB_ID\"" \
    || { echo "FAIL: slow buffer has no entry for job $JOB_ID" >&2; exit 1; }

echo "== pprof mounted behind -pprof"
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/pprof/")
[ "$code" = "200" ] || { echo "FAIL: /debug/pprof/ -> $code" >&2; exit 1; }

echo "== structured JSON request log"
# slog flushes per line; the match request above must appear with its
# request id, the slowQuery marker (1µs threshold) and the route.
for i in $(seq 1 20); do
    grep -q '"requestId":"obs-smoke-7"' "$LOG" && break
    sleep 0.1
done
grep -q '"requestId":"obs-smoke-7"' "$LOG" || { echo "FAIL: log missing request id; log:" >&2; cat "$LOG" >&2; exit 1; }
grep -q '"slowQuery":true' "$LOG" || { echo "FAIL: log missing slowQuery marker" >&2; exit 1; }
grep -q '"route":"POST /v1/datasets/{name}/match"' "$LOG" \
    || { echo "FAIL: log missing route pattern" >&2; exit 1; }
grep -q '"dataset":"ItalyPower"' "$LOG" || { echo "FAIL: log missing dataset" >&2; exit 1; }

echo "== graceful shutdown (SIGTERM)"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=
echo "obs smoke: PASS"
