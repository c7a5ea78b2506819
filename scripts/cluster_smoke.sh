#!/usr/bin/env bash
# Multi-process cluster end-to-end smoke test: build innetd and
# innet-coord, start 1 coordinator + 3 detector shards (plus a
# single-process reference innetd), ingest the same burst into both the
# cluster and the reference over HTTP and the UDP line protocol, and
# assert the coordinator's merged outlier set — served by the compact
# iterative merge — equals the single-process answer, for strictly less
# payload than a full-window merge of the same data moves. Then kill one
# shard and assert the merged answer survives (replicas=2) while the
# view reports itself degraded.
#
# Needs: go, curl, bash (uses /dev/udp). CI runs this; it is also
# runnable locally: scripts/cluster_smoke.sh
set -euo pipefail

HOST=127.0.0.1
SINGLE_HTTP=$HOST:18090
SHARD_HTTP=("$HOST:18091" "$HOST:18092" "$HOST:18093")
SHARD_CTL=("$HOST:19101" "$HOST:19102" "$HOST:19103")
COORD_HTTP=$HOST:18094
COORD_UDP_PORT=19971
BINDIR=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

DETFLAGS=(-ranker nn -n 1 -window 10m)

echo "== build"
go build -o "$BINDIR/innetd" ./cmd/innetd
go build -o "$BINDIR/innet-coord" ./cmd/innet-coord

echo "== start the single-process reference"
"$BINDIR/innetd" -http "$SINGLE_HTTP" "${DETFLAGS[@]}" &
PIDS+=($!)

echo "== start 3 detector shards"
for i in 0 1 2; do
  "$BINDIR/innetd" -http "${SHARD_HTTP[$i]}" -shard "${SHARD_CTL[$i]}" "${DETFLAGS[@]}" &
  PIDS+=($!)
done

echo "== start the coordinator (replicas=2, compact merge)"
TRACE_FILE=$BINDIR/merges.jsonl
"$BINDIR/innet-coord" -http "$COORD_HTTP" -udp "$HOST:$COORD_UDP_PORT" \
  -shards "$(IFS=,; echo "${SHARD_CTL[*]}")" -replicas 2 \
  -health-interval 100ms -trace-file "$TRACE_FILE" "${DETFLAGS[@]}" &
COORD_PID=$!
PIDS+=("$COORD_PID")

wait_ok() {
  for _ in $(seq 1 100); do
    curl -fsS "http://$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "no health from $1" >&2
  return 1
}

echo "== wait for health"
wait_ok "$SINGLE_HTTP"
for addr in "${SHARD_HTTP[@]}"; do wait_ok "$addr"; done
wait_ok "$COORD_HTTP"

BATCH='{"readings":[
  {"sensor":1,"at_ms":60000,"values":[20.1]},
  {"sensor":2,"at_ms":60000,"values":[20.2]},
  {"sensor":3,"at_ms":60000,"values":[20.3]},
  {"sensor":4,"at_ms":60000,"values":[20.4]},
  {"sensor":5,"at_ms":60000,"values":[20.5]},
  {"sensor":6,"at_ms":60000,"values":[20.6]}
]}'

echo "== POST the same batch to the cluster and the reference"
curl -fsS -X POST "http://$COORD_HTTP/v1/observations" -d "$BATCH"; echo
curl -fsS -X POST "http://$SINGLE_HTTP/v1/observations" -d "$BATCH"; echo

echo "== widen the windows so the payload comparison is meaningful"
# 8 more rounds per sensor, all inside the 10m window: the full-window
# merge must ship every point of every shard window per query, the
# compact merge only estimates and supports.
FILL='{"readings":['
for ROUND in $(seq 1 8); do
  for S in 1 2 3 4 5 6; do
    FILL+="{\"sensor\":$S,\"at_ms\":$((60000 + ROUND * 60000)),\"values\":[20.$((S + ROUND))]},"
  done
done
FILL="${FILL%,}]}"
curl -fsS -X POST "http://$COORD_HTTP/v1/observations" -d "$FILL" >/dev/null
curl -fsS -X POST "http://$SINGLE_HTTP/v1/observations" -d "$FILL" >/dev/null

echo "== UDP-fire the same burst at both (sensor 9 has a stuck-at-rail fault)"
for LINE in "3 61000 20.35" "9 62000 55.3"; do
  echo "$LINE" > "/dev/udp/$HOST/$COORD_UDP_PORT"
  # The reference has no UDP listener configured; use its HTTP door.
  SENSOR=${LINE%% *}; REST=${LINE#* }; AT=${REST%% *}; VAL=${REST#* }
  curl -fsS -X POST "http://$SINGLE_HTTP/v1/observations" \
    -d "{\"readings\":[{\"sensor\":$SENSOR,\"at_ms\":$AT,\"values\":[$VAL]}]}" >/dev/null
done

outliers() { # extract the outlier array from a query response
  grep -o '"outliers":\[[^]]*\]' <<<"$1"
}

echo "== poll until the compact merged answer is complete and matches the reference"
MATCH=
for _ in $(seq 1 150); do
  MERGED=$(curl -fsS "http://$COORD_HTTP/v1/outliers")
  SINGLE=$(curl -fsS "http://$SINGLE_HTTP/v1/outliers?sensor=1")
  if grep -q '"degraded":false' <<<"$MERGED" && grep -q '"shards_ok":3' <<<"$MERGED" \
     && grep -q '"merge_mode":"compact"' <<<"$MERGED" \
     && grep -q '"sensor":9' <<<"$MERGED" \
     && [[ "$(outliers "$MERGED")" == "$(outliers "$SINGLE")" ]]; then
    MATCH=1
    echo "compact merged == single-process: $(outliers "$MERGED")"
    break
  fi
  sleep 0.1
done
[[ -n "$MATCH" ]] || {
  echo "merged answer never matched:" >&2
  echo "  merged: ${MERGED:-}" >&2
  echo "  single: ${SINGLE:-}" >&2
  exit 1
}

metric() { # extract one counter from the coordinator's /metrics
  curl -fsS "http://$COORD_HTTP/metrics" | awk -v m="$1" '$1 == m {print $2}'
}

echo "== compare per-query payload: compact vs full-window merge"
B0=$(metric innetcoord_merge_bytes_total)
COMPACT=$(curl -fsS "http://$COORD_HTTP/v1/outliers")
B1=$(metric innetcoord_merge_bytes_total)
F0=$(metric innetcoord_merge_full_bytes_total)
FULL=$(curl -fsS "http://$COORD_HTTP/v1/outliers?merge=full")
F1=$(metric innetcoord_merge_full_bytes_total)
grep -q '"merge_mode":"compact"' <<<"$COMPACT" || { echo "compact query fell back: $COMPACT" >&2; exit 1; }
grep -q '"merge_mode":"full"' <<<"$FULL" || { echo "full query not full: $FULL" >&2; exit 1; }
[[ "$(outliers "$COMPACT")" == "$(outliers "$FULL")" ]] || {
  echo "compact and full merges disagree: $COMPACT vs $FULL" >&2; exit 1; }
COMPACT_BYTES=$((B1 - B0))
FULL_BYTES=$((F1 - F0))
echo "compact payload: ${COMPACT_BYTES}B/query, full-window payload: ${FULL_BYTES}B/query"
[[ "$COMPACT_BYTES" -gt 0 && "$COMPACT_BYTES" -lt "$FULL_BYTES" ]] || {
  echo "compact merge payload ${COMPACT_BYTES}B not below full ${FULL_BYTES}B" >&2; exit 1; }

echo "== /debug/merges agrees with the payload counter"
# /debug/merges groups the span ring per compact session (full-mode
# queries are not sessions), so its newest entry is the compact query just
# measured: its total_bytes must equal the innetcoord_merge_bytes_total
# delta.
MERGES=$(curl -fsS "http://$COORD_HTTP/debug/merges")
grep -q '"total":' <<<"$MERGES" || { echo "/debug/merges malformed: $MERGES" >&2; exit 1; }
TRACE_BYTES=$(grep -o '"total_bytes":[0-9]*' <<<"$MERGES" | head -1 | cut -d: -f2)
[[ "${TRACE_BYTES:-}" == "$COMPACT_BYTES" ]] || {
  echo "newest session total_bytes=${TRACE_BYTES:-missing}, counter delta=$COMPACT_BYTES" >&2; exit 1; }
grep -q '"quiesced_round":' <<<"$MERGES" || { echo "session missing quiesced_round: $MERGES" >&2; exit 1; }
echo "newest compact session moved ${TRACE_BYTES}B, matching the counter"

echo "== coordinator metrics carry HELP/TYPE and histograms; pprof off by default"
CMETRICS=$(curl -fsS "http://$COORD_HTTP/metrics")
for WANT in \
  "# TYPE innetcoord_merge_bytes_total counter" \
  "# TYPE innetcoord_query_latency_seconds histogram" \
  "# TYPE innetcoord_rpc_latency_seconds histogram" \
  'innetcoord_query_latency_seconds_count{mode="compact"}'; do
  grep -qF "$WANT" <<<"$CMETRICS" || { echo "coordinator metrics missing: $WANT" >&2; exit 1; }
done
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$COORD_HTTP/debug/pprof/")
[[ "$CODE" == 404 ]] || { echo "/debug/pprof/ on the API port returned $CODE, want 404" >&2; exit 1; }

echo "== shard states"
curl -fsS "http://$COORD_HTTP/v1/shards"; echo

echo "== /debug/status aggregates the cluster in one snapshot"
STATUS=$(curl -fsS "http://$COORD_HTTP/debug/status")
for WANT in '"status":"ok"' '"shards_total":3' '"shards_up":3'; do
  grep -q "$WANT" <<<"$STATUS" || { echo "/debug/status missing $WANT: $STATUS" >&2; exit 1; }
done
[[ "$(grep -o '"addr":' <<<"$STATUS" | wc -l)" -eq 3 ]] || {
  echo "/debug/status does not list 3 shards: $STATUS" >&2; exit 1; }
grep -q '"build_info":{"version":' <<<"$STATUS" || {
  echo "/debug/status missing build_info: $STATUS" >&2; exit 1; }
grep -q '"go":"go' <<<"$STATUS" || { echo "build_info lacks a Go version: $STATUS" >&2; exit 1; }
echo "status ok: 3/3 shards, build info present"

echo "== one trace ID follows the query across coordinator and shard"
TRACE_ID=$(grep -o '"trace":"[0-9a-f]*"' <<<"$COMPACT" | head -1 | cut -d'"' -f4)
[[ -n "$TRACE_ID" && "$TRACE_ID" != 0000000000000000 ]] || {
  echo "query response carries no trace ID: $COMPACT" >&2; exit 1; }
CSPANS=$(curl -fsS "http://$COORD_HTTP/debug/traces?trace=$TRACE_ID")
grep -q '"op":"query"' <<<"$CSPANS" || { echo "coordinator trace lacks a query span: $CSPANS" >&2; exit 1; }
grep -q '"op":"merge_round"' <<<"$CSPANS" || { echo "coordinator trace lacks round spans: $CSPANS" >&2; exit 1; }
SHARD_SPANS=0
for addr in "${SHARD_HTTP[@]}"; do
  SSPANS=$(curl -fsS "http://$addr/debug/traces?trace=$TRACE_ID")
  if grep -q '"op":"session_create"\|"op":"sufficient"' <<<"$SSPANS"; then
    SHARD_SPANS=$((SHARD_SPANS + 1))
    grep -q "\"trace\":\"$TRACE_ID\"" <<<"$SSPANS" || {
      echo "shard $addr span trace mismatch: $SSPANS" >&2; exit 1; }
  fi
done
[[ "$SHARD_SPANS" -ge 1 ]] || { echo "no shard recorded session spans for trace $TRACE_ID" >&2; exit 1; }
echo "trace $TRACE_ID spans both sides ($SHARD_SPANS shards)"

echo "== /debug/traces caps its response size"
ONE=$(curl -fsS "http://$COORD_HTTP/debug/traces?limit=1")
[[ "$(grep -o '"op":' <<<"$ONE" | wc -l)" -eq 1 ]] || {
  echo "?limit=1 served more than one span: $ONE" >&2; exit 1; }

echo "== kill shard 2 and expect a degraded but still-correct merge"
kill "${PIDS[2]}" 2>/dev/null || true
DEGRADED=
for _ in $(seq 1 150); do
  MERGED=$(curl -fsS "http://$COORD_HTTP/v1/outliers")
  if grep -q '"degraded":true' <<<"$MERGED" \
     && [[ "$(outliers "$MERGED")" == "$(outliers "$SINGLE")" ]]; then
    DEGRADED=1
    echo "degraded merge still exact: $(outliers "$MERGED")"
    break
  fi
  sleep 0.1
done
[[ -n "$DEGRADED" ]] || { echo "degraded merge never matched: ${MERGED:-}" >&2; exit 1; }

echo "== coordinator metrics"
curl -fsS "http://$COORD_HTTP/metrics"

echo "== clean shutdown"
kill -INT "$COORD_PID"
wait "$COORD_PID"

echo "== -trace-file captured the spans as JSONL (one schema: every line a span)"
[[ -s "$TRACE_FILE" ]] || { echo "trace file $TRACE_FILE empty" >&2; exit 1; }
grep -q "^{\"trace\":\"$TRACE_ID\",\"op\":\"merge_round\"" "$TRACE_FILE" || {
  echo "trace file lacks merge_round spans of the compact query's trace $TRACE_ID" >&2; exit 1; }
if grep -qv '^{"trace":"[0-9a-f]*","op":"' "$TRACE_FILE"; then
  echo "trace file holds a line that is not a span:" >&2; grep -v '^{"trace":"[0-9a-f]*","op":"' "$TRACE_FILE" | head -3 >&2; exit 1
fi
echo "$(wc -l < "$TRACE_FILE") records traced to $TRACE_FILE"
echo "cluster smoke: OK"
