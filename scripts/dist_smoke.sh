#!/usr/bin/env sh
# Distributed smoke test: boot two shard workers and a coordinator whose
# default dataset is served by them, plus two reference servers over the
# identical generated dataset — one sharded in-process (the bit-exactness
# contract: the remote transport must answer byte-identically to the local
# one, range ordering included) and one unsharded (cross-checking the
# order-insensitive families against the monolith). Then kill and restart
# a worker and require the same answers again (the client re-ships the
# shard state). Mirrored by the CI dist-smoke job via `make dist-smoke`.
set -eu

HOST="${ONEX_DIST_HOST:-127.0.0.1}"
MONO_ADDR="$HOST:18090"
W1_ADDR="$HOST:18091"
W2_ADDR="$HOST:18092"
DIST_ADDR="$HOST:18093"
LOCAL_ADDR="$HOST:18094"
BIN="${TMPDIR:-/tmp}/onex-server-dist.$$"
LOGDIR="$(mktemp -d "${TMPDIR:-/tmp}/onex-dist-logs.XXXXXX")"

cleanup() {
    status=$?
    for pid in "${MONO_PID:-}" "${LOCAL_PID:-}" "${DIST_PID:-}" "${W1_PID:-}" "${W2_PID:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    for pid in "${MONO_PID:-}" "${LOCAL_PID:-}" "${DIST_PID:-}" "${W1_PID:-}" "${W2_PID:-}"; do
        [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    done
    if [ "$status" -ne 0 ]; then
        echo "---- server logs (tails) ----" >&2
        for f in "$LOGDIR"/*.log; do
            [ -f "$f" ] || continue
            echo "-- $f" >&2
            tail -20 "$f" >&2
        done
    fi
    rm -rf "$BIN" "$LOGDIR"
}
trap cleanup EXIT INT TERM

wait_healthz() { # addr pid
    addr=$1; pid=$2
    for i in $(seq 1 50); do
        if curl -sf "http://$addr/healthz" >/dev/null 2>&1 \
            || curl -sf "http://$addr/worker/v1/healthz" >/dev/null 2>&1; then
            return 0
        fi
        kill -0 "$pid" 2>/dev/null || { echo "server on $addr died" >&2; exit 1; }
        sleep 0.2
    done
    echo "server on $addr never became healthy" >&2
    exit 1
}

DATASET_FLAGS="-generate ItalyPower -scale 0.2 -st 0.25 -lengths 6 -seed 1"
SHARDS=3

echo "== build"
go build -o "$BIN" ./cmd/onex-server

echo "== start 2 workers, distributed coordinator, sharded + unsharded references"
"$BIN" -role worker -addr "$W1_ADDR" >"$LOGDIR/w1.log" 2>&1 &
W1_PID=$!
"$BIN" -role worker -addr "$W2_ADDR" >"$LOGDIR/w2.log" 2>&1 &
W2_PID=$!
wait_healthz "$W1_ADDR" "$W1_PID"
wait_healthz "$W2_ADDR" "$W2_PID"

# shellcheck disable=SC2086
"$BIN" -addr "$MONO_ADDR" $DATASET_FLAGS >"$LOGDIR/mono.log" 2>&1 &
MONO_PID=$!
# shellcheck disable=SC2086
"$BIN" -addr "$LOCAL_ADDR" $DATASET_FLAGS -shards "$SHARDS" >"$LOGDIR/local.log" 2>&1 &
LOCAL_PID=$!
# shellcheck disable=SC2086
"$BIN" -addr "$DIST_ADDR" $DATASET_FLAGS -shards "$SHARDS" -health-probe 250ms \
    -shard-workers "http://$W1_ADDR,http://$W2_ADDR" >"$LOGDIR/dist.log" 2>&1 &
DIST_PID=$!
wait_healthz "$MONO_ADDR" "$MONO_PID"
wait_healthz "$LOCAL_ADDR" "$LOCAL_PID"
wait_healthz "$DIST_ADDR" "$DIST_PID"

echo "== workers hold the coordinator's shipped shards"
SHARDS1=$(curl -sf "http://$W1_ADDR/worker/v1/healthz" | sed 's/.*"shards":\([0-9]*\).*/\1/')
SHARDS2=$(curl -sf "http://$W2_ADDR/worker/v1/healthz" | sed 's/.*"shards":\([0-9]*\).*/\1/')
TOTAL=$((SHARDS1 + SHARDS2))
[ "$TOTAL" -eq "$SHARDS" ] || { echo "FAIL: workers hold $TOTAL shards, want $SHARDS" >&2; exit 1; }
echo "ok: $SHARDS1 + $SHARDS2 resident shards"

compare() { # refaddr label method path [body]
    refaddr=$1; label=$2; method=$3; path=$4; body=${5:-}
    if [ -n "$body" ]; then
        ref=$(curl -sf -X "$method" -d "$body" "http://$refaddr$path")
        dist=$(curl -sf -X "$method" -d "$body" "http://$DIST_ADDR$path")
    else
        ref=$(curl -sf -X "$method" "http://$refaddr$path")
        dist=$(curl -sf -X "$method" "http://$DIST_ADDR$path")
    fi
    if [ "$ref" != "$dist" ]; then
        echo "FAIL: $label diverged from $refaddr" >&2
        echo "  ref:  $ref" >&2
        echo "  dist: $dist" >&2
        exit 1
    fi
    echo "ok: $label matches $refaddr"
}

Q6='[0.1,0.5,0.9,0.5,0.1,0.5]'
run_mix() {
    # Byte-identical to the in-process sharded engine: the transport contract.
    compare "$LOCAL_ADDR" "match"       POST "/v1/datasets/ItalyPower/match" "{\"query\":$Q6}"
    compare "$LOCAL_ADDR" "knn"         POST "/v1/datasets/ItalyPower/match" "{\"query\":$Q6,\"k\":3}"
    compare "$LOCAL_ADDR" "match exact" POST "/v1/datasets/ItalyPower/match" "{\"query\":$Q6,\"mode\":\"exact\"}"
    compare "$LOCAL_ADDR" "range"       POST "/v1/datasets/ItalyPower/range" "{\"query\":$Q6,\"length\":6,\"radius\":0.3}"
    compare "$LOCAL_ADDR" "range exact" POST "/v1/datasets/ItalyPower/range" "{\"query\":$Q6,\"length\":6,\"radius\":0.3,\"exact\":true}"
    compare "$LOCAL_ADDR" "seasonal"    GET  "/v1/datasets/ItalyPower/seasonal?length=6"
    compare "$LOCAL_ADDR" "recommend"   GET  "/v1/datasets/ItalyPower/recommend?degree=S"
    compare "$LOCAL_ADDR" "match batch" POST "/v1/datasets/ItalyPower/match/batch" \
        "{\"queries\":[{\"query\":$Q6},{\"query\":$Q6,\"k\":2}]}"
    # Order-insensitive families also match the unsharded monolith (range
    # content matches too, but its concatenation order is per-layout).
    compare "$MONO_ADDR" "match vs mono"     POST "/v1/datasets/ItalyPower/match" "{\"query\":$Q6}"
    compare "$MONO_ADDR" "knn vs mono"       POST "/v1/datasets/ItalyPower/match" "{\"query\":$Q6,\"k\":3}"
    compare "$MONO_ADDR" "recommend vs mono" GET  "/v1/datasets/ItalyPower/recommend?degree=S"
}

echo "== query mix: distributed vs local-sharded and unsharded references"
run_mix

echo "== distributed explain carries rpc and worker spans"
# A query run_mix has not cached, so the cascade actually reaches the workers.
QX='[0.9,0.4,0.1,0.4,0.9,0.4]'
EXPLAIN=$(curl -sf -X POST -d "{\"query\":$QX,\"explain\":true}" \
    "http://$DIST_ADDR/v1/datasets/ItalyPower/match")
echo "$EXPLAIN" | grep -q '"transport":"remote"' \
    || { echo "FAIL: distributed explain not tagged remote: $EXPLAIN" >&2; exit 1; }
echo "$EXPLAIN" | grep -q '"name":"rpc-scan"' \
    || { echo "FAIL: distributed explain has no rpc-scan span: $EXPLAIN" >&2; exit 1; }
echo "$EXPLAIN" | grep -q '"name":"worker-scan"' \
    || { echo "FAIL: distributed explain has no folded worker-scan span: $EXPLAIN" >&2; exit 1; }
# A best-match is one scan call per shard and searched length: the
# coordinator mines the winning group itself, so no members round crosses.
if echo "$EXPLAIN" | grep -q '"name":"rpc-members"'; then
    echo "FAIL: distributed best-match crossed the seam in members rounds: $EXPLAIN" >&2; exit 1
fi
RPCS=$(echo "$EXPLAIN" | grep -o '"name":"rpc-[a-z]*"' | wc -l)
LENGTHS=$(echo "$EXPLAIN" | sed -n 's/.*"lengthsVisited":\([0-9]*\).*/\1/p')
[ -n "$LENGTHS" ] && [ "$RPCS" -eq $((SHARDS * LENGTHS)) ] \
    || { echo "FAIL: distributed best-match made $RPCS rpc calls over ${LENGTHS:-?} searched lengths, want $SHARDS per length: $EXPLAIN" >&2; exit 1; }
echo "ok: distributed explain decomposes into rpc + worker spans, $RPCS rpc calls ($SHARDS shards × $LENGTHS lengths)"

echo "== worker metrics exposition"
WMETRICS=$(curl -sf "http://$W2_ADDR/worker/v1/metrics")
for fam in onex_worker_op_duration_seconds onex_worker_ops_total \
    onex_worker_ships_total onex_worker_resident_shards \
    onex_worker_retained_generations onex_worker_uptime_seconds; do
    echo "$WMETRICS" | grep -q "^# TYPE $fam " \
        || { echo "FAIL: worker /metrics missing family $fam" >&2; exit 1; }
done
echo "$WMETRICS" | awk '
    /^onex_worker_op_duration_seconds_bucket\{op="scan",/ {
        n++; v = $NF + 0
        if (v < prev) { print "bucket decreased: " $0; exit 1 }
        prev = v
    }
    END { if (n == 0) { print "no scan buckets"; exit 1 } }' \
    || { echo "FAIL: worker scan histogram buckets not monotone" >&2; exit 1; }
# Every representative scan, best-match and k-NN alike, takes the one scan
# route: the worker has no fixed-cutoff op of its own.
if echo "$WMETRICS" | grep -q 'op="scanfixed"'; then
    echo "FAIL: worker metrics show a scanfixed op; every scan must take /scan" >&2; exit 1
fi
echo "ok: worker metrics families present, scan buckets monotone, no scanfixed op"

echo "== coordinator surfaces fleet health"
curl -sf "http://$DIST_ADDR/metrics" | grep -q '^onex_worker_up{' \
    || { echo "FAIL: coordinator /metrics has no onex_worker_up" >&2; exit 1; }
curl -sf "http://$DIST_ADDR/v1/stats" | grep -q "\"url\":\"http://$W1_ADDR\",\"up\":true" \
    || { echo "FAIL: /v1/stats workers section missing or W1 not up" >&2; exit 1; }
echo "ok: onex_worker_up exposed, workers section reports W1 up"

wait_worker_state() { # addr want(true|false)
    addr=$1; want=$2
    for i in $(seq 1 40); do
        if curl -sf "http://$DIST_ADDR/v1/stats" \
            | grep -q "\"url\":\"http://$addr\",\"up\":$want"; then
            return 0
        fi
        sleep 0.3
    done
    echo "FAIL: worker $addr never reported up=$want" >&2
    exit 1
}

echo "== kill worker 1: fleet health flips it down"
kill "$W1_PID"
wait "$W1_PID" 2>/dev/null || true
wait_worker_state "$W1_ADDR" false
echo "ok: W1 reported down after kill"

echo "== restart worker 1 empty at the same address, re-query"
"$BIN" -role worker -addr "$W1_ADDR" >"$LOGDIR/w1b.log" 2>&1 &
W1_PID=$!
wait_healthz "$W1_ADDR" "$W1_PID"
wait_worker_state "$W1_ADDR" true
echo "ok: W1 reported up after restart"
run_mix

echo "== request id propagated to worker log lines"
grep -q 'worker request' "$LOGDIR/w2.log" \
    || { echo "FAIL: worker log has no request lines" >&2; exit 1; }
grep 'worker request' "$LOGDIR/w2.log" | grep -q 'requestId=[0-9a-f]' \
    || { echo "FAIL: worker request lines carry no request id" >&2; exit 1; }
echo "ok: worker logs are tagged with coordinator request ids"

echo "== graceful shutdown"
for pid in "$DIST_PID" "$MONO_PID" "$LOCAL_PID" "$W1_PID" "$W2_PID"; do
    kill -TERM "$pid" 2>/dev/null || true
done
for pid in "$DIST_PID" "$MONO_PID" "$LOCAL_PID" "$W1_PID" "$W2_PID"; do
    wait "$pid" 2>/dev/null || true
done
DIST_PID=; MONO_PID=; LOCAL_PID=; W1_PID=; W2_PID=
echo "dist smoke: PASS"
